"""The replay oracle: loss sequences fixed in advance, each played from round
1 through ``play_game`` by a fresh player.  The exhaustive sign search and
the half-split's cap are checked against it."""

import math

import numpy as np

from switchlab.adversaries import Adversary
from switchlab.game_core import play_game


class ReplayAdversary(Adversary):
    """Feeds back a pre-committed loss sequence, one entry per round: a
    tuple as it is, a scalar or an array row as a tuple of floats."""

    def __init__(self, seq):
        self._seq = [s if type(s) is tuple
                     else tuple(np.atleast_1d(np.asarray(s, dtype=float)).tolist()) for s in seq]
        self._t = 0

    def respond(self, player_x, is_moving, W):
        w = self._seq[self._t]
        self._t += 1
        return w


def replayed_worst_sign_regret(player_factory, config):
    """Every +-1 sequence played by a fresh player, in code order: sequence
    c has round t's loss at bit t-1 (set for +1).  The first maximum wins,
    and the first sequence that raises raises."""
    T = config.horizon_T
    worst, worst_traj = -math.inf, None
    for code in range(2 ** T):
        seq = [1.0 if code >> i & 1 else -1.0 for i in range(T)]
        traj = play_game(player_factory(), ReplayAdversary(seq), config)
        if traj.regret > worst:
            worst, worst_traj = traj.regret, traj
    return worst, worst_traj
