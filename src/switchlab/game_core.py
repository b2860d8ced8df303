"""Core game engine: configs, trajectories, switch counting, and regret.

A game is a T-round interaction.  Each round the player commits an action
x_t inside the unit p-ball, the adversary observes x_t and answers with a
linear loss w_t inside the dual-pairing ball, then both sides observe the
pair.  Regret for linear losses reduces to

    sum_t w_t . x_t  +  || sum_t w_t ||_dual

where the dual norm is L2 for p=2 and L1 for p=inf.  The action sequence
must contain strictly fewer than ``budget_K`` switches; a switch is an
exact-inequality change between consecutive emitted actions.

This module owns a game's state and its round rules.  ``play_game`` keeps
the running loss sum W and hands it to the adversary each round, so
adversaries hold no copy of it; ``worst_case_sign_regret`` walks every
+-1 loss sequence with the same round step.  A finished game is stored as
columns: the (T, n) actions and losses, and the moving flags derived from
the actions.  ``Trajectory.from_columns`` is the one place that derives
switch count, loss sum, feasibility and regret.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetViolationError, CapacityError, UnsupportedConfigError

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


def _round_step(player, prev, switches: int, t: int, n: int, p: float, budget_K: int):
    """Round t's action as an n-vector and as a list, whether it moves, and
    the switch count after it.  ``prev`` is the previous action's list
    (``None`` at round 1, which always moves); list equality of floats is
    the exact ``!=`` of ``Trajectory.from_columns`` (-0.0 equals 0.0, and
    a fresh NaN never equals another).  ``ValueError`` if the action leaves
    the unit p-ball, ``BudgetViolationError`` if the move is switch number K."""
    x = np.asarray(player.decide(), dtype=float).reshape(n)
    if norm_of(x, p) > 1.0 + BALL_SLACK:
        raise ValueError(f"round {t}: player action leaves the unit {p}-ball")
    key = x.tolist()
    if prev is None:
        return x, key, True, switches
    if key == prev:
        return x, key, False, switches
    switches += 1
    if switches >= budget_K:
        raise BudgetViolationError(f"round {t}: switch number {switches} with budget "
                                   f"K={budget_K}", round_index=t)
    return x, key, True, switches


def play_game(player, adversary, config: GameConfig) -> Trajectory:
    """Run the adaptive protocol for T rounds and return the trajectory.

    Per round: the player decides x_t from its own state, the adversary
    answers ``respond(x_t, is_moving, W)`` with w_t, then the player
    observes w_t.  ``is_moving`` is the exact inequality, and ``W`` the
    read-only sum of the earlier losses (zeros at t = 1) in round order,
    that :meth:`Trajectory.from_columns` uses.  A player that would exceed
    the switch budget aborts the game with an error naming the round.

    Both strategies must be freshly initialized for ``config``.
    """
    n = config.dimension_n
    p = config.player_norm_p
    q = config.adversary_norm_q
    K = config.budget_K
    respond = adversary.respond
    X = np.empty((config.horizon_T, n))
    L = np.empty((config.horizon_T, n))
    W = np.zeros(n)
    prev, switches = None, 0

    for i in range(config.horizon_T):
        t = i + 1
        x, prev, is_moving, switches = _round_step(player, prev, switches, t, n, p, K)
        X[i] = x
        W.setflags(write=False)
        w = np.asarray(respond(x, is_moving, W), dtype=float).reshape(n)
        if norm_of(w, q) > 1.0 + BALL_SLACK:
            raise ValueError(f"round {t}: adversary loss leaves the unit {q}-ball")
        L[i] = w
        W = W + w
        player.observe(w)

    return Trajectory.from_columns(config, X, L)


#: the 1-d losses -1 and +1, read-only; index ``s >= 0`` gives sign(s), +1 at 0
SIGN_LOSSES = (np.array([-1.0]), np.array([1.0]))
for _w in SIGN_LOSSES:
    _w.setflags(write=False)


def worst_case_sign_regret(player_factory, config: GameConfig) -> tuple[float, Trajectory]:
    """Max regret of a player over every +-1 loss sequence (n = 1, T <= 16).

    A depth-first walk of the sign tree.  Each node plays one round step of
    ``play_game`` (ball, exact-``!=`` moving flag, switch budget), and the
    player is forked with ``copy.copy`` for the w = -1 child (the
    ``Player`` contract), so a shared prefix is played once: about
    2^(T+1) rounds in place of T*2^T.  The result is that of playing the
    2^T sequences one by one in code order, where sequence c has round t's
    loss at bit t-1 (set for +1): among equal regrets the smallest code
    wins, and when sequences raise, the error of the smallest such code is
    raised.
    """
    T = config.horizon_T
    if config.dimension_n != 1:
        raise UnsupportedConfigError("exhaustive sign sweep is one-dimensional")
    if T > 16:
        raise CapacityError("exhaustive sign sweep supports T <= 16")
    K, p = config.budget_K, config.player_norm_p
    actions = [None] * T
    worst = [-math.inf, 0, None]  # regret, code and actions of the worst sequence
    error = [math.inf, None]      # code and exception of the first failing sequence

    def fail(code, exc):
        # deferred, never dropped: the branch is cut and the error of the
        # smallest failing code is raised once the walk ends
        if code < error[0]:
            error[:] = code, exc

    def walk(player, i, code, payoff, W, switches):
        t = i + 1
        try:
            _, actions[i], _, switches = _round_step(player, actions[i - 1] if i else None,
                                                     switches, t, 1, p, K)
        except Exception as exc:
            return fail(code, exc)
        x = actions[i][0]
        for w, loss in zip((-1.0, 1.0), SIGN_LOSSES):
            child, c = (copy.copy(player), code) if w < 0 else (player, code | 1 << i)
            try:
                child.observe(loss)
            except Exception as exc:
                fail(c, exc)
                continue
            # np.dot of one +-1 entry is the exact product, so this is the
            # sequential sum of Trajectory.from_columns, bit for bit
            s = payoff + w * x
            if t < T:
                walk(child, t, c, s, W + w, switches)
                continue
            regret = s + abs(W + w)  # |W| is either dual norm of an integer W
            if regret > worst[0] or regret == worst[0] and c < worst[1]:
                worst[:] = regret, c, list(actions)

    walk(player_factory(), 0, 0, 0.0, 0.0, 0)
    if error[1] is not None:
        raise error[1]
    code = worst[1]
    traj = Trajectory.from_columns(config, worst[2],
                                   [1.0 if code >> i & 1 else -1.0 for i in range(T)])
    return traj.regret, traj
