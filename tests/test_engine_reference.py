"""``play_game`` against the ndarray round loop it replaced
(``reference_engine.reference_play_game``), byte for byte, and the tuple
round protocol of every registered strategy."""

import math

import pytest

from reference_engine import reference_play_game
from switchlab.adversaries import ADVERSARIES, Adversary, make_adversary
from switchlab.errors import UnsupportedConfigError
from switchlab.game_core import GameConfig, play_game
from switchlab.players import PLAYERS, Player, make_player

#: horizon -> the budgets K <= T played at it
HORIZONS = {1: (1,), 7: (1, 2, 4), 1000: (1, 2, 4, 16)}
PARAMS = {"fugal": {"resolution": 200}}


def _configs(horizons=HORIZONS):
    for n in (1, 2, 3, 5):
        for p in (2.0, math.inf):
            for T, budgets in horizons.items():
                for K in budgets:
                    yield GameConfig(T, K, n, p, seed=n + K)


class _IntPlayer(Player):
    """Plays int zeros, then from round T//2 + 1 the int point -sign(W_1) e_1."""

    def __init__(self, config):
        self._n, self._move_at, self._t, self._W = config.dimension_n, config.horizon_T // 2, 0, 0

    def decide(self):
        x = 0 if self._t < self._move_at else (-1 if self._W > 0 else 1)
        return (x,) + (0,) * (self._n - 1)

    def observe(self, loss_w):
        self._t, self._W = self._t + 1, self._W + loss_w[0]


class _IntAdversary(Adversary):
    """The int loss sign(x_1) e_1, +1 at zero."""

    def __init__(self, config):
        self._rest = (0,) * (config.dimension_n - 1)

    def respond(self, player_x, is_moving, W):
        return (1 if player_x[0] >= 0 else -1,) + self._rest


class _SignedZeroPlayer(Player):
    """Alternates 0.0 and -0.0 in every coordinate: equal actions, so no move."""

    def __init__(self, config):
        self._n, self._t = config.dimension_n, 0

    def decide(self):
        return (-0.0 if self._t % 2 else 0.0,) * self._n

    def observe(self, loss_w):
        self._t += 1


class _SignedZeroAdversary(Adversary):
    """-0.0 and 0.0 losses in turn, with a half loss in the first coordinate
    every third round."""

    def __init__(self, config):
        self._n, self._t = config.dimension_n, 0

    def respond(self, player_x, is_moving, W):
        self._t += 1
        w = (-0.0 if self._t % 2 else 0.0,) * self._n
        return (0.5,) + w[1:] if self._t % 3 == 0 else w


class _NaNPlayer(Player):
    """Plays 0.25 e_1 and a NaN first coordinate from round 4 on."""

    def __init__(self, config):
        self._n, self._t = config.dimension_n, 0

    def decide(self):
        return (math.nan if self._t >= 3 else 0.25,) + (0.0,) * (self._n - 1)

    def observe(self, loss_w):
        self._t += 1


class _NaNAdversary(Adversary):
    """Loses -e_1, and a NaN first coordinate at round 3."""

    def __init__(self, config):
        self._n, self._t = config.dimension_n, 0

    def respond(self, player_x, is_moving, W):
        self._t += 1
        return (math.nan if self._t == 3 else -1.0,) + (0.0,) * (self._n - 1)


CUSTOM_PLAYERS = {"ints": _IntPlayer, "signed_zero": _SignedZeroPlayer, "nan": _NaNPlayer}
CUSTOM_ADVERSARIES = {"ints": _IntAdversary, "signed_zero": _SignedZeroAdversary,
                      "nan": _NaNAdversary}


def _player(pid, cfg):
    if pid in CUSTOM_PLAYERS:
        return CUSTOM_PLAYERS[pid](cfg)
    return make_player(pid, cfg, PARAMS.get(pid))


def _adversary(aid, cfg):
    if aid in CUSTOM_ADVERSARIES:
        return CUSTOM_ADVERSARIES[aid](cfg)
    return make_adversary(aid, cfg)


def _outcome(engine, pid, aid, cfg):
    """A game's bytes (rounds, regret by ``float.hex``, W), or its error;
    ``None`` when the pair does not apply to the config."""
    try:
        player, adversary = _player(pid, cfg), _adversary(aid, cfg)
    except UnsupportedConfigError:
        return None
    try:
        traj = engine(player, adversary, cfg)
    except Exception as err:
        return type(err), str(err), getattr(err, "round_index", None)
    return traj.rounds.tobytes(), traj.regret.hex(), traj.cumulative_W.tobytes()


def _assert_parity(pairs, horizons=HORIZONS):
    played = 0
    for cfg in _configs(horizons):
        for pid, aid in pairs:
            ref = _outcome(reference_play_game, pid, aid, cfg)
            assert _outcome(play_game, pid, aid, cfg) == ref, (pid, aid, cfg)
            played += ref is not None
    return played


@pytest.mark.parametrize("pid", PLAYERS)
def test_play_game_equals_the_reference_loop_on_the_registries(pid):
    assert _assert_parity([(pid, aid) for aid in ADVERSARIES]) > 0


def test_play_game_equals_the_reference_loop_on_ints_signed_zeros_and_nan():
    pairs = ([(pid, aid) for pid in CUSTOM_PLAYERS for aid in (*ADVERSARIES, *CUSTOM_ADVERSARIES)]
             + [(pid, aid) for pid in PLAYERS for aid in CUSTOM_ADVERSARIES])
    assert _assert_parity(pairs, {1: (1,), 7: (1, 2, 4), 1000: (4,)}) > 0
    # the custom strategies reach what they are written for
    cfg = GameConfig(7, 2, 2)
    assert _outcome(play_game, "nan", "zero", cfg)[1].startswith("round 4: player action")
    assert _outcome(play_game, "minibatch", "nan", cfg)[1].startswith("round 3: adversary loss")
    assert type(_outcome(play_game, "signed_zero", "signed_zero", cfg)[0]) is bytes


def _is_floats(v, n):
    return type(v) is tuple and len(v) == n and all(type(e) is float for e in v)


def test_registered_strategies_speak_tuples_of_floats():
    # every player's decide and every adversary's respond returns a tuple of
    # n Python floats, which the engine compares, sums and stores without NumPy
    played = 0
    for cfg in _configs({7: (1, 2, 4)}):
        n = cfg.dimension_n
        for pid in PLAYERS:
            for aid in ADVERSARIES:
                try:
                    player, adversary = _player(pid, cfg), _adversary(aid, cfg)
                except UnsupportedConfigError:
                    continue
                decide, respond, seen = player.decide, adversary.respond, []
                player.decide = lambda: seen.append(decide()) or seen[-1]
                adversary.respond = lambda x, m, W: seen.append(respond(x, m, W)) or seen[-1]
                play_game(player, adversary, cfg)
                assert len(seen) == 2 * cfg.horizon_T
                assert all(_is_floats(v, n) for v in seen), (pid, aid, cfg, seen)
                played += 1
    assert played > 100
