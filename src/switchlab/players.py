"""Player strategies.

All players follow the same stateful contract as adversaries: ``decide()``
emits the action for the upcoming round, ``observe(loss_w)`` feeds back the
round's loss.  Players that intend to stay put re-emit the identical value,
since the engine detects switches by exact equality.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PolicyMissingError, UnsupportedConfigError
from .fugal_engine import DEFAULT_RESOLUTION, u_k_solve
from .game_core import BALL_SLACK, INF, GameConfig, norm_of

#: ball diameter / gradient bound behind the default mini-batch step size
BALL_DIAMETER = 2.0
GRAD_BOUND = 1.0


class Player:
    """A player's state changes only by rebinding its attributes, never by
    mutating their values in place, so ``copy.copy`` forks it: the copy
    and the original go on independently from the same history, and
    read-only data such as ``FugalPlayer.policy`` is shared.  The
    exhaustive sign walk (``game_core.worst_case_sign_regret``) relies on it.
    """

    def decide(self) -> np.ndarray:
        raise NotImplementedError

    def observe(self, loss_w: np.ndarray) -> None:
        pass


class ConstantPlayer(Player):
    """Plays one fixed in-ball point every round; zero switches."""

    def __init__(self, config: GameConfig, point: np.ndarray | float = 0.0):
        n = config.dimension_n
        pt = np.asarray(point, dtype=float)
        if pt.ndim == 0:
            pt = np.full(n, float(pt))
        self._point = pt.reshape(n) + 0.0
        if norm_of(self._point, config.player_norm_p) > 1.0 + BALL_SLACK:
            raise ValueError("constant point lies outside the unit ball")
        self._point.setflags(write=False)

    def decide(self):
        return self._point


def project_to_ball(x: np.ndarray, p: float) -> np.ndarray:
    if p == 2:
        nrm = float(np.linalg.norm(x))
        return x if nrm <= 1.0 else x / nrm
    if p == INF:
        return np.clip(x, -1.0, 1.0)
    raise ValueError(f"unsupported norm p={p!r}")


class MinibatchPlayer(Player):
    """Epoch mini-batching wrapped around projected online gradient descent.

    The horizon is split into epochs of length ceil(T/K); the player holds
    one point per epoch and, at each epoch boundary, takes a projected
    gradient step on the epoch-averaged loss:

        x_next = Proj_ball(x - eta * accumulated_gradient / epoch_length)

    The first point is the origin.  At most K distinct points are ever
    emitted, so at most K-1 switches.  With the default step size
    eta = diameter/(grad_bound*sqrt(K)) = 2/sqrt(K), unit-dual-norm losses
    give regret <= 2*ceil(T/K)*sqrt(K); on the Linf box the coordinates
    decouple and the same bound holds per coordinate.
    """

    def __init__(self, config: GameConfig, step_size: float | None = None):
        self._config = config
        self.epoch_length = -(-config.horizon_T // config.budget_K)
        self.step_size = (BALL_DIAMETER / (GRAD_BOUND * math.sqrt(config.budget_K))
                          if step_size is None else float(step_size))
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        self.current_point = np.zeros(config.dimension_n)
        self.accumulated_gradient = np.zeros(config.dimension_n)
        self._rounds_seen = 0

    def decide(self):
        return self.current_point

    def observe(self, loss_w):
        self.accumulated_gradient = self.accumulated_gradient + np.asarray(loss_w, dtype=float)
        self._rounds_seen += 1
        if self._rounds_seen % self.epoch_length == 0:
            avg = self.accumulated_gradient / self.epoch_length
            nxt = project_to_ball(self.current_point - self.step_size * avg,
                                  self._config.player_norm_p)
            self.current_point = nxt + 0.0
            self.accumulated_gradient = np.zeros_like(self.accumulated_gradient)


class HalfSplitPlayer(Player):
    """Two-block strategy for K=2, n=1: regret at most ceil(T/2).

    Even T: play 0 for rounds 1..T/2, then -W1/(T/2) where W1 is the sum of
    first-half losses.  Odd T: play 0 through round (T+1)/2, then
    -(sum of losses in rounds 2..(T+1)/2)/((T-1)/2); round one is a freebie
    costing at most 1 beyond the even-horizon guarantee.
    """

    def __init__(self, config: GameConfig):
        if config.budget_K != 2 or config.dimension_n != 1:
            raise UnsupportedConfigError("half-split player requires K=2, n=1")
        T = config.horizon_T
        self._zero_until = T // 2 if T % 2 == 0 else (T + 1) // 2
        self._skip_first = T % 2 == 1
        self._denom = T // 2 if T % 2 == 0 else (T - 1) // 2
        self._prefix_sum = 0.0
        self._rounds_seen = 0
        self._second_point: float | None = None

    def decide(self):
        t = self._rounds_seen + 1
        if t <= self._zero_until:
            return np.array([0.0])
        if self._second_point is None:
            self._second_point = -self._prefix_sum / self._denom + 0.0
        return np.array([self._second_point])

    def observe(self, loss_w):
        self._rounds_seen += 1
        t = self._rounds_seen
        in_window = t <= self._zero_until and not (self._skip_first and t == 1)
        if in_window:
            self._prefix_sum += float(loss_w[0])


class FugalPlayer(Player):
    """1-d player driven by a solved fugal policy (switch budget K).

    Round one plays the policy's root action.  Afterwards the player keeps
    W_t, the loss sum since its last move (move round included), and the
    thresholds

        U = T * M_frac(prefix, +1),    L = -T * M_frac(prefix, -1),

    where prefix is the tuple of recorded block signs.  When W_t >= U it
    records +1, advances to the next policy action; when W_t <= L it
    records -1 and advances.  Otherwise it repeats its action.  Against
    any |w|<=1 adversary the recorded block lengths exhaust the horizon
    before more than K-1 advances can occur; a guard enforces the budget
    regardless.
    """

    def __init__(self, config: GameConfig, policy):
        if config.dimension_n != 1:
            raise UnsupportedConfigError("fugal player is one-dimensional")
        if policy is None or getattr(policy, "budget_K", None) != config.budget_K:
            raise PolicyMissingError(
                f"need a solved fugal policy for K={config.budget_K}")
        self._T = config.horizon_T
        self._K = config.budget_K
        self.policy = policy
        self.recorded_signs: tuple[int, ...] = ()
        self.block_start_W = 0.0
        self.switches_used = 0
        self.threshold_U = math.nan
        self.threshold_L = math.nan
        self._rounds_seen = 0
        self._x = np.array([policy.x_star(())])

    def decide(self):
        if self._rounds_seen == 0:
            return self._x
        if self.switches_used < self._K - 1:
            prefix = self.recorded_signs
            self.threshold_U = self._T * self.policy.m_fraction(prefix, +1)
            self.threshold_L = -self._T * self.policy.m_fraction(prefix, -1)
            sign = 0
            if self.block_start_W >= self.threshold_U:
                sign = +1
            elif self.block_start_W <= self.threshold_L:
                sign = -1
            if sign != 0:
                self.recorded_signs = prefix + (sign,)
                self.switches_used += 1
                self._x = np.array([self.policy.x_star(self.recorded_signs) + 0.0])
                self.block_start_W = 0.0
        return self._x

    def observe(self, loss_w):
        self.block_start_W += float(loss_w[0])
        self._rounds_seen += 1


class RandomSwitchPlayer(Player):
    """Baseline that switches at uniformly drawn rounds to random in-ball points.

    Draws min(K-1, T-1) distinct switch rounds from {2..T} and one point per
    segment, all from a generator seeded with ``config.seed``, so
    trajectories are reproducible.
    """

    def __init__(self, config: GameConfig):
        rng = np.random.default_rng(config.seed)
        T, K, n = config.horizon_T, config.budget_K, config.dimension_n
        n_switches = min(K - 1, T - 1)
        if n_switches > 0:
            rounds = np.sort(rng.choice(np.arange(2, T + 1), size=n_switches, replace=False))
        else:
            rounds = np.empty(0, dtype=int)
        self._switch_rounds = set(int(r) for r in rounds)
        self._points = [self._draw_point(rng, n, config.player_norm_p)
                        for _ in range(n_switches + 1)]
        self._segment = 0
        self._rounds_seen = 0

    @staticmethod
    def _draw_point(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
        if p == INF:
            pt = rng.uniform(-1.0, 1.0, size=n)
        else:
            g = rng.standard_normal(n)
            g /= max(float(np.linalg.norm(g)), 1e-300)
            pt = g * rng.uniform() ** (1.0 / n)
        pt = pt + 0.0
        pt.setflags(write=False)
        return pt

    def decide(self):
        t = self._rounds_seen + 1
        if t in self._switch_rounds:
            self._segment += 1
        return self._points[self._segment]

    def observe(self, loss_w):
        self._rounds_seen += 1


def fugal(config: GameConfig, policy=None, resolution: int = DEFAULT_RESOLUTION) -> FugalPlayer:
    """Fugal player; solves the K-switch policy at ``resolution`` when none is given."""
    if policy is None:
        _, policy = u_k_solve(config.budget_K, int(resolution))
    return FugalPlayer(config, policy)


#: each player id's constructor; its keyword arguments are the id's params
PLAYERS = {"constant": ConstantPlayer, "minibatch": MinibatchPlayer, "halfsplit": HalfSplitPlayer,
           "fugal": fugal, "random_switch": RandomSwitchPlayer}
PLAYER_IDS = tuple(PLAYERS)


def make_player(player_id: str, config: GameConfig, params: dict | None = None) -> Player:
    if player_id not in PLAYERS:
        raise ValueError(f"unknown player id {player_id!r}")
    return PLAYERS[player_id](config, **(params or {}))
