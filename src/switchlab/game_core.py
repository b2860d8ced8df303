"""Core game engine: configs, trajectories, switch counting, and regret.

A game is a T-round interaction.  Each round the player commits an action
x_t inside the unit p-ball, the adversary observes x_t and answers with a
linear loss w_t inside the dual-pairing ball, then both sides observe the
pair.  Regret for linear losses reduces to

    sum_t w_t . x_t  +  || sum_t w_t ||_dual

where the dual norm is L2 for p=2 and L1 for p=inf.  The action sequence
must contain strictly fewer than ``budget_K`` switches; a switch is an
exact-inequality change between consecutive emitted actions.

A game is stored as columns: the (T, n) actions and losses, and the
moving flags derived from the actions.  ``Trajectory.from_columns`` is the
one place that derives switch count, loss sum, feasibility and regret.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetViolationError

INF = math.inf

#: slack used when checking norm-ball membership, absorbs normalization rounding
BALL_SLACK = 1e-12


def norm_of(x: np.ndarray, p: float) -> float:
    """Primal p-norm restricted to the two cases the lab uses (2 and inf)."""
    if p == 2:
        return float(np.linalg.norm(x))
    if p == INF:
        return float(np.max(np.abs(x))) if x.size else 0.0
    raise ValueError(f"unsupported norm p={p!r}; expected 2 or inf")


def dual_norm(w: np.ndarray, player_norm_p: float) -> float:
    """Dual norm of the player's ball: L2 is self-dual, the dual of Linf is L1."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("dual_norm requires finite entries")
    if player_norm_p == 2:
        return float(np.linalg.norm(w))
    if player_norm_p == INF:
        return float(np.sum(np.abs(w)))
    raise ValueError(f"unsupported norm p={player_norm_p!r}; expected 2 or inf")


@dataclass(frozen=True)
class GameConfig:
    """One game instance: horizon, switch budget, dimension, geometry, seed.

    ``budget_K`` is a hard cap: feasible action sequences contain strictly
    fewer than K switches.  K > T is rejected up front (a T-round sequence
    can never use more than T-1 switches, so larger budgets only relax an
    already-vacuous constraint).
    """

    horizon_T: int
    budget_K: int
    dimension_n: int = 1
    player_norm_p: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.horizon_T < 1:
            raise ValueError("horizon_T must be a positive integer")
        if self.budget_K < 1:
            raise ValueError("budget_K must be a positive integer")
        if self.budget_K > self.horizon_T:
            raise ValueError("budget_K must satisfy K <= T")
        if self.dimension_n < 1:
            raise ValueError("dimension_n must be >= 1")
        if self.player_norm_p not in (2, INF):
            raise ValueError("player_norm_p must be 2 or inf")
        if self.seed < 0:
            raise ValueError("seed must be unsigned")

    @property
    def adversary_norm_q(self) -> float:
        # L2 pairs with L2; Linf pairs with Linf losses (regret then uses L1).
        return self.player_norm_p


def _moving_mask(actions: np.ndarray) -> np.ndarray:
    """Per-round moving flags of a (T, n) action array: round 1 always
    moves, round t > 1 moves when any coordinate differs (exact ``!=``,
    so -0.0 equals 0.0) from round t-1."""
    moving = np.ones(len(actions), dtype=bool)
    moving[1:] = (actions[1:] != actions[:-1]).any(axis=1)
    return moving


@dataclass(frozen=True)
class Trajectory:
    """A completed game.  Immutable once returned.

    ``rounds`` is a read-only structured array of length T with fields
    ``action_x`` and ``loss_w`` (shape n each) and ``is_moving``.
    ``feasible`` is False when the recorded actions used switch number
    budget_K or more; such trajectories carry ``regret=None``.
    """

    config: GameConfig
    rounds: np.ndarray
    switch_count: int
    cumulative_W: np.ndarray
    regret: float | None
    feasible: bool = field(default=True)

    @classmethod
    def from_columns(cls, config: GameConfig, actions, losses) -> "Trajectory":
        """Build a trajectory from its (T, n) action and loss columns; a
        list of scalars is one column.  Everything else is derived here.

        The regret is the sequential sum of ``np.dot(w_t, x_t)`` plus the
        dual norm of the sequential loss sum: summing in any other order
        (or with ``einsum``) moves results in the last bit.
        """
        shape = (config.horizon_T, config.dimension_n)
        X = np.asarray(actions, dtype=float).reshape(len(actions), -1)
        L = np.asarray(losses, dtype=float).reshape(len(losses), -1)
        if X.shape != shape or L.shape != shape:
            raise ValueError(f"actions {X.shape} and losses {L.shape} must both "
                             f"have shape (T, n) = {shape}")
        n = config.dimension_n
        rounds = np.empty(len(X), dtype=[("action_x", float, (n,)), ("loss_w", float, (n,)),
                                         ("is_moving", bool)])
        rounds["action_x"] = X
        rounds["loss_w"] = L
        rounds["is_moving"] = _moving_mask(X)
        rounds.setflags(write=False)
        switches = int(np.count_nonzero(rounds["is_moving"])) - 1
        W = np.cumsum(L, axis=0)[-1]
        W.setflags(write=False)
        feasible = switches < config.budget_K
        regret = None
        if feasible:
            payoff = 0.0
            for w, x in zip(L, X):
                payoff += float(np.dot(w, x))
            regret = payoff + dual_norm(W, config.player_norm_p)
        return cls(config=config, rounds=rounds, switch_count=switches,
                   cumulative_W=W, regret=regret, feasible=feasible)

    def block_lengths(self) -> list[int]:
        """Lengths of maximal stationary blocks, from the is_moving flags."""
        starts = np.flatnonzero(self.rounds["is_moving"])
        return np.diff(starts, append=len(self.rounds)).tolist()


def count_switches(actions) -> int:
    """Number of indices i with x_{i+1} != x_i, by exact vector equality.

    No tolerance: a strategy that intends to stay put must re-emit the
    identical value.
    """
    if len(actions) == 0:
        raise ValueError("count_switches needs a nonempty sequence")
    X = np.asarray(actions, dtype=float).reshape(len(actions), -1)
    return int(np.count_nonzero(_moving_mask(X))) - 1


def decide_in_ball(player, n: int, p: float, t: int) -> np.ndarray:
    """The player's round-t action as an n-vector; ``ValueError`` if it
    leaves the unit p-ball."""
    x = np.asarray(player.decide(), dtype=float).reshape(n)
    if norm_of(x, p) > 1.0 + BALL_SLACK:
        raise ValueError(f"round {t}: player action leaves the unit {p}-ball")
    return x


def budget_violation(t: int, switches: int, budget_K: int) -> BudgetViolationError:
    """The error for a round-t move that is switch number ``switches``."""
    return BudgetViolationError(f"round {t}: switch number {switches} with budget "
                                f"K={budget_K}", round_index=t)


def play_game(player, adversary, config: GameConfig) -> Trajectory:
    """Run the adaptive protocol for T rounds and return the trajectory.

    Per round: the player decides x_t from its own state, the adversary
    observes x_t (plus the moving flag, by the same exact inequality that
    :meth:`Trajectory.from_columns` uses) and decides w_t, then the player
    observes w_t.  A player that would exceed the switch budget aborts the
    game with an error naming the offending round.

    Both strategies must be freshly initialized for ``config``.
    """
    n = config.dimension_n
    p = config.player_norm_p
    q = config.adversary_norm_q
    X = np.empty((config.horizon_T, n))
    L = np.empty((config.horizon_T, n))
    switches = 0

    for i in range(config.horizon_T):
        t = i + 1
        x = decide_in_ball(player, n, p, t)
        is_moving = i == 0 or bool((x != X[i - 1]).any())
        if is_moving and i > 0:
            switches += 1
            if switches >= config.budget_K:
                raise budget_violation(t, switches, config.budget_K)
        X[i] = x
        w = np.asarray(adversary.respond(x, is_moving), dtype=float).reshape(n)
        if norm_of(w, q) > 1.0 + BALL_SLACK:
            raise ValueError(f"round {t}: adversary loss leaves the unit {q}-ball")
        L[i] = w
        player.observe(w)

    return Trajectory.from_columns(config, X, L)
