"""Player strategies.

All players follow the same stateful contract as adversaries: ``decide()``
emits the action for the upcoming round, ``hold()`` says for how many
rounds from that one it stays, and ``observe(loss_w, count)`` feeds back a
run of ``count`` rounds of one loss.  Actions and losses are immutable
tuples of n floats.  NumPy runs only for the L2 norm at n >= 2 (``np.dot``'s
fused multiply-adds) and a run's sum of non-integer losses (``add_repeated``).
Players that intend to stay put re-emit an equal tuple, since the engine
detects switches by exact equality.  Every registered player declares its
hold; a player that declares none plays runs of one round.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import UnsupportedConfigError
from .fugal_engine import DEFAULT_RESOLUTION, child_row, u_k_solve
from .game_core import INF, GameConfig, add_repeated, as_integer, outside_ball

#: ball diameter / gradient bound behind the default mini-batch step size
BALL_DIAMETER = 2.0
GRAD_BOUND = 1.0


class Player:
    """A player's state changes only by rebinding its attributes, never by
    mutating their values in place, so ``copy.copy`` forks it: the copy
    and the original go on independently from the same history, and
    read-only data such as ``FugalPlayer.policy`` is shared.  Actions and
    losses are tuples, so neither side can change a value the other holds.
    Its attributes determine its future play, so the exhaustive sign search
    (``game_core.worst_case_sign_regret``) keys a state by ``vars(player)``.

    ``play_game`` calls ``decide`` once per run, then ``hold``, then
    ``observe`` once with the run's loss and length.
    """

    def __copy__(self):
        # what copy.copy does by default, without the __reduce_ex__ round trip
        fork = type(self).__new__(type(self))
        fork.__dict__.update(self.__dict__)
        return fork

    def decide(self) -> tuple:
        raise NotImplementedError

    def hold(self) -> int:
        """The rounds, from the one just decided, for which ``decide()``
        would return the same tuple whatever the losses; at least 1.  It
        reads the state and must not change it, so ``vars(player)`` still
        keys the sign search's states."""
        return 1

    def observe(self, loss_w: tuple, count: int) -> None:
        """Feed back ``count`` rounds of the loss ``loss_w``; ``count`` is at
        most what ``hold()`` said after the last ``decide()``."""


class ConstantPlayer(Player):
    """Plays one fixed in-ball point every round; zero switches."""

    def __init__(self, config: GameConfig, point: np.ndarray | float = 0.0):
        n = config.dimension_n
        pt = np.asarray(point, dtype=float)
        if pt.ndim == 0:
            pt = np.full(n, float(pt))
        self._point = tuple((pt.reshape(n) + 0.0).tolist())
        if outside_ball(self._point, config.player_norm_p):
            raise ValueError("constant point lies outside the unit ball")
        self._T = config.horizon_T

    def decide(self):
        return self._point

    def hold(self):
        return self._T


def project_to_ball(x: tuple, p: float) -> tuple:
    """The tuple x projected onto the unit p-ball, with the bits of
    ``x / np.linalg.norm(x)`` (L2) or ``np.clip(x, -1.0, 1.0)`` (Linf)."""
    if p == 2:
        nrm = math.sqrt(x[0] * x[0] if len(x) == 1 else (arr := np.array(x, float)).dot(arr))
        return x if nrm <= 1.0 else tuple([a / nrm for a in x])
    if p == INF:
        return tuple([min(max(a, -1.0), 1.0) for a in x])
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
        if not 0 < self.step_size < INF:   # NaN fails too
            raise ValueError(f"step_size must be positive and finite, not {self.step_size}")
        self.current_point = (0.0,) * config.dimension_n
        self.accumulated_gradient = self.current_point
        self._rounds_seen = 0

    def decide(self):
        return self.current_point

    def hold(self):
        # until the epoch ends
        return self.epoch_length - self._rounds_seen % self.epoch_length

    def observe(self, loss_w, count):
        # summed in round order, as play_game sums W
        self.accumulated_gradient = add_repeated(self.accumulated_gradient, loss_w, count)
        self._rounds_seen += count
        # the next epoch's point; no round plays one after round T
        if self._rounds_seen % self.epoch_length == 0 and self._rounds_seen < self._config.horizon_T:
            # list comprehensions: generator expressions here raised verify's peak RSS
            nxt = project_to_ball(tuple([x - self.step_size * (g / self.epoch_length) for x, g
                                         in zip(self.current_point, self.accumulated_gradient)]),
                                  self._config.player_norm_p)
            self.current_point = tuple([a + 0.0 for a in nxt])
            self.accumulated_gradient = (0.0,) * len(nxt)


class FugalPlayer(Player):
    """1-d player driven by the fugal policy for its switch budget K.  The
    constructor refuses n != 1 before it solves anything, then takes the
    policy solved at ``resolution`` (an integer or an integral float) from
    ``u_k_solve``'s cache, so players of one (K, resolution) share it.

    Round one plays the policy's root action.  Afterwards the player keeps
    W_t, the loss sum since its last move (move round included), and the
    thresholds

        U = T * M_frac(prefix, +1),    L = -T * M_frac(prefix, -1),

    where prefix is the sequence of recorded block signs, kept as its row
    in ``policy.nodes``.  When W_t >= U it records +1, advances to the next
    policy action; when W_t <= L it records -1 and advances.  Otherwise it
    repeats its action, and it holds while no loss in the ball can bring
    W_t to a threshold.  Against any |w|<=1 adversary the recorded block
    lengths exhaust the horizon before more than K-1 advances can occur; a
    guard enforces the budget regardless.  ``CapacityError`` past
    ``fugal_engine.MAX_POLICY_NODES``, from ``u_k_solve``.
    """

    def __init__(self, config: GameConfig, resolution: int = DEFAULT_RESOLUTION):
        if config.dimension_n != 1:
            raise UnsupportedConfigError("fugal player is one-dimensional")
        self.policy = u_k_solve(config.budget_K, as_integer("resolution", resolution))[1]
        self._T = config.horizon_T
        self._last_level = (1 << (config.budget_K - 1)) - 1   # the row that opens the last block
        self.row = 0   # the policy row of the recorded signs
        self.block_start_W = 0.0
        self._rounds_seen = 0
        self._x = (self.policy.nodes.item(0, 0),)   # the root action

    def _thresholds(self) -> tuple[float, float]:
        """(U, L) of the current block."""
        nodes, row = self.policy.nodes, self.row
        return self._T * nodes.item(row, 1), -self._T * nodes.item(row, 2)

    def decide(self):
        if self._rounds_seen and self.row < self._last_level:
            U, L = self._thresholds()
            sign = +1 if self.block_start_W >= U else -1 if self.block_start_W <= L else 0
            if sign != 0:
                self.row = child_row(self.row, sign)
                self._x = (self.policy.nodes.item(self.row, 0) + 0.0,)
                self.block_start_W = 0.0
        return self._x

    def hold(self):
        # A hold of c rounds lets c - 1 losses into the block sum before the
        # last decide it covers.  Each is ball-checked, so it moves the sum by
        # at most 1 + BALL_SLACK, and c = int(d) keeps the sum short of a
        # threshold d away.  One round less absorbs that slack and the
        # rounding of the sums while d < 1e11.
        if self.row >= self._last_level:
            return self._T
        U, L = self._thresholds()
        return max(1, int(min(U - self.block_start_W, self.block_start_W - L)) - 1)

    def observe(self, loss_w, count):
        self.block_start_W = add_repeated((self.block_start_W,), loss_w, count)[0]
        self._rounds_seen += count


class RandomSwitchPlayer(Player):
    """Baseline that switches at uniformly drawn rounds to random in-ball points.

    Draws min(K-1, T-1) distinct switch rounds from {2..T} and one point per
    segment, all from ``random.Random(config.seed)``, so trajectories are
    reproducible.  Box points are uniform per coordinate; ball points are a
    Gaussian direction scaled by a radius drawn as ``random() ** (1/n)``, so
    they are uniform in the ball.  It holds each point until the next switch
    round; the sorted switch rounds end with T + 1.
    """

    def __init__(self, config: GameConfig):
        rng = random.Random(config.seed)
        T, K, n = config.horizon_T, config.budget_K, config.dimension_n
        rounds = rng.sample(range(2, T + 1), min(K - 1, T - 1))
        self._switch_rounds = (*sorted(rounds), T + 1)
        self._points = [self._draw_point(rng, n, config.player_norm_p)
                        for _ in range(len(rounds) + 1)]
        self._segment = 0
        self._rounds_seen = 0

    @staticmethod
    def _draw_point(rng: random.Random, n: int, p: float) -> tuple:
        if p == INF:
            return tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
        g = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = max(math.hypot(*g), 1e-300)
        radius = rng.random() ** (1.0 / n)
        return tuple(x / norm * radius + 0.0 for x in g)

    def decide(self):
        if self._switch_rounds[self._segment] == self._rounds_seen + 1:
            self._segment += 1
        return self._points[self._segment]

    def hold(self):
        return self._switch_rounds[self._segment] - self._rounds_seen - 1

    def observe(self, loss_w, count):
        self._rounds_seen += count


#: each player id's constructor; its keyword arguments are the id's params
PLAYERS = {"constant": ConstantPlayer, "minibatch": MinibatchPlayer, "fugal": FugalPlayer,
           "random_switch": RandomSwitchPlayer}


def make_player(player_id: str, config: GameConfig, params: dict | None = None) -> Player:
    if player_id not in PLAYERS:
        raise ValueError(f"unknown player id {player_id!r}")
    return PLAYERS[player_id](config, **(params or {}))
