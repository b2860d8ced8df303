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
adversaries hold no copy of it; ``worst_case_sign_regret``, the lab's one
exhaustive +-1 search, decides each distinct game state once with the same
round rule.  Actions, losses and W are immutable tuples of n floats; NumPy
runs only on a change (the ball check) and on the columns, filled once per
1024 rounds: the (T, n) actions and losses, and the moving flags.
``Trajectory.from_columns`` is the one place that derives switch count,
loss sum, feasibility and regret.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, field
from itertools import chain
from operator import add

import numpy as np

from .errors import BudgetViolationError, CapacityError, UnsupportedConfigError

INF = math.inf

#: slack used when checking norm-ball membership, absorbs normalization rounding
BALL_SLACK = 1e-12


def outside_ball(v, p: float) -> bool:
    """Whether the vector v leaves the unit p-ball, p = 2 or inf as a
    ``GameConfig`` holds it, by more than ``BALL_SLACK``.  ``not norm <=
    bound`` puts a NaN entry outside.  The L2 norm is np.linalg.norm's."""
    v = np.asarray(v, dtype=float)
    norm = math.sqrt(float(v.dot(v))) if p == 2 else float(np.abs(v).max())
    return not norm <= 1.0 + BALL_SLACK


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

        The regret is the payoff plus the dual norm of the sequential loss
        sum.  The payoff sums the rows of one stacked 1 x n @ n x 1 matmul
        (``np.dot``'s kernel) with ``cumsum``, which is strictly sequential:
        bit for bit the loop ``payoff += np.dot(w_t, x_t)``.  Any other
        order (or ``einsum``) moves results in the last bit.
        """
        shape = (config.horizon_T, config.dimension_n)
        X = np.asarray(actions, dtype=float).reshape(len(actions), -1)
        L = np.asarray(losses, dtype=float).reshape(len(losses), -1)
        if X.shape != shape or L.shape != shape:
            raise ValueError(f"actions {X.shape} and losses {L.shape} must both "
                             f"have shape (T, n) = {shape}")
        rounds = np.empty(len(X), dtype=[("action_x", float, shape[1:]),
                                         ("loss_w", float, shape[1:]), ("is_moving", bool)])
        rounds["action_x"], rounds["loss_w"] = X, L
        rounds["is_moving"] = _moving_mask(X)
        rounds.setflags(write=False)
        switches = int(np.count_nonzero(rounds["is_moving"])) - 1
        W = np.cumsum(L, axis=0)[-1].copy()   # not a view, which would keep all T rows
        W.setflags(write=False)
        feasible = switches < config.budget_K
        payoffs = (L[:, None, :] @ X[:, :, None]).ravel()   # w_t . x_t per round
        regret = (float(np.cumsum(payoffs, out=payoffs)[-1]) + dual_norm(W, config.player_norm_p)
                  if feasible else None)
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


def _check_change(v, t: int, n: int, p: float, side: str, prev=None, switches: int = 0,
                  budget_K: int = 0) -> int:
    """Check round t's changed action or loss ``v`` and return the switch
    count after it: ``TypeError`` unless ``v`` is a tuple (the round
    protocol); ``ValueError`` if its length is not n, it leaves the unit
    p-ball or has a NaN entry; ``BudgetViolationError`` if it moves from an
    action ``prev`` (``None`` at round 1 and for a loss) as switch number K."""
    if type(v) is not tuple:
        raise TypeError(f"round {t}: {side} must be a tuple of {n} floats (the round "
                        f"protocol), not {type(v).__name__}")
    if len(v) != n or outside_ball(v, p):
        raise ValueError(f"round {t}: {side} leaves the unit {p}-ball in n = {n}: {v}")
    if prev is not None:
        switches += 1
        if switches >= budget_K:
            raise BudgetViolationError(f"round {t}: switch number {switches} with budget "
                                       f"K={budget_K}", round_index=t)
    return switches


def play_game(player, adversary, config: GameConfig) -> Trajectory:
    """Run the adaptive protocol for T rounds and return the trajectory.

    Per round: the player decides x_t from its own state, the adversary
    answers ``respond(x_t, is_moving, W)`` with w_t, then the player
    observes w_t; each is a tuple of n floats.  ``is_moving`` is the exact
    inequality, and ``W`` the sum of the earlier losses (zeros at t = 1)
    in round order, the bits :meth:`Trajectory.from_columns` gets.  A
    stationary round runs inline; a changed action or loss goes through
    :func:`_check_change`, whose errors name the round.  The rows are
    collected as tuples and copied into the (T, n) columns per 1024 rounds.

    Both strategies must be freshly initialized for ``config``.
    """
    T, n, p, K = config.horizon_T, config.dimension_n, config.player_norm_p, config.budget_K
    q = config.adversary_norm_q
    decide, respond, observe = player.decide, adversary.respond, player.observe
    X, L = np.empty((T, n)), np.empty((T, n))   # the action and loss columns
    W = (0.0,) * n
    prev, prev_w, switches = None, None, 0

    for start in range(0, T, 1024):   # a bounded chunk of rows keeps few tuples alive
        xs, ws = [], []
        for t in range(start + 1, min(start + 1024, T) + 1):
            x = decide()
            moving = x != prev   # a bool; an ndarray gives an array, never False
            if moving is not False:
                switches = _check_change(x, t, n, p, "player action", prev, switches, K)
            w = respond(x, moving, W)
            if (w != prev_w) is not False:
                _check_change(w, t, n, q, "adversary loss")
            prev, prev_w = x, w
            xs.append(x)
            ws.append(w)
            # built at size n; tuple(map(...)) would shrink a 10-tuple, and the old W
            # tuples would pile up (2000 per size) on a free list it never reads
            W = (*map(add, W, w),)
            observe(w)
        X[start:t] = np.fromiter(chain.from_iterable(xs), float, (t - start) * n).reshape(-1, n)
        L[start:t] = np.fromiter(chain.from_iterable(ws), float, (t - start) * n).reshape(-1, n)

    return Trajectory.from_columns(config, X, L)


#: the 1-d losses -1 and +1; index ``s >= 0`` gives sign(s), +1 at 0
SIGN_LOSSES = ((-1.0,), (1.0,))


#: the most states the sign search stores: a 42 MiB peak (tracemalloc, minibatch)
MAX_SIGN_STATES = 2 ** 17


def _state_key(value, alive: dict):
    """A hashable snapshot of one player attribute: arrays by dtype, shape
    and bytes, floats by their bits (-0.0 is not 0.0), ints by value,
    tuples, lists and sets by content.  Anything else is keyed by identity
    and held in ``alive``, which the search keeps for its whole length,
    since CPython reuses the id of a freed object."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("d", value)
    if isinstance(value, int):
        return value
    if isinstance(value, (tuple, list)):
        return type(value), tuple(_state_key(v, alive) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_state_key(v, alive) for v in value)
    alive[id(value)] = value
    return (id(value),)


def worst_case_sign_regret(player_factory, config: GameConfig) -> tuple[float, Trajectory]:
    """Max regret of a player over every +-1 loss sequence (n = 1).

    A memoized search over game states, one level per round.  A state is
    (round, W, the previous action, switches used, a snapshot of
    ``vars(player)`` by :func:`_state_key`); by the ``Player`` fork contract
    the attributes determine the player's future play, so sign prefixes that
    reach one state share everything after it, and each state plays one
    round by ``play_game``'s rule (the exact-``!=`` moving flag, then
    :func:`_check_change` on a change) once.  Its children are forked
    with ``copy.copy``.  The search stores at most ``MAX_SIGN_STATES``
    states, a 42 MiB peak for ``minibatch``, and raises ``CapacityError``
    beyond.

    Sequence c has round t's loss at bit t-1 (set for +1).  A state's value
    is max_w (w x + value(child)), and |W| after round T; so the worst
    sequence maximizes the regret summed backwards, and among equal sums the
    smallest code wins.  The reported regret is that sequence's forward sum,
    from ``Trajectory.from_columns``.  When sequences raise, the error of
    the smallest such code is raised.
    """
    T = config.horizon_T
    if config.dimension_n != 1:
        raise UnsupportedConfigError("exhaustive sign sweep is one-dimensional")
    K, p = config.budget_K, config.player_norm_p
    alive = {}      # attribute values keyed by identity
    levels = []     # per round, each state's action and the indices of its two children
    failures = []   # (smallest code of a failing sequence, its error); levels are then unread
    # player, W, previous action, switches, the smallest code that reaches the state
    frontier, stored = [[player_factory(), 0, None, 0, 0]], 1
    for t in range(1, T + 1):
        index, nxt, level = {}, [], []
        for player, W, prev, switches, low in frontier:
            try:
                x, used = player.decide(), switches
                if (x != prev) is not False:   # as in play_game
                    used = _check_change(x, t, 1, p, "player action", prev, switches, K)
            except Exception as exc:   # deferred: the smallest failing code raises
                failures.append((low, exc))
                continue
            children = []
            for bit, loss in enumerate(SIGN_LOSSES):
                child, code = (copy.copy(player) if bit == 0 else player), low | bit << (t - 1)
                try:
                    child.observe(loss)
                except Exception as exc:
                    failures.append((code, exc))
                    continue
                W_next = W + 2 * bit - 1
                state = (W_next,) if t == T else (
                    W_next, x[0], used,
                    tuple((name, _state_key(v, alive)) for name, v in vars(child).items()))
                j = index.setdefault(state, len(nxt))
                if j < len(nxt):
                    nxt[j][4] = min(nxt[j][4], code)
                else:
                    if stored + j >= MAX_SIGN_STATES:
                        raise CapacityError(f"sign search needs over {MAX_SIGN_STATES} states")
                    nxt.append([child, W_next, x, used, code])
                children.append(j)
            level.append((x[0], children))
        levels.append(level)
        frontier, stored = nxt, stored + len(nxt)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]

    best = [(abs(W), 0) for _, W, *_ in frontier]   # (value, -code) of each state
    for level in reversed(levels):
        best = [max(((2 * bit - 1) * x + best[j][0], 2 * best[j][1] - bit)
                    for bit, j in enumerate(children)) for x, children in level]
    code, j, actions = -best[0][1], 0, []
    for i, level in enumerate(levels):
        x, children = level[j]
        actions.append(x)
        j = children[code >> i & 1]
    traj = Trajectory.from_columns(config, actions,
                                   [1.0 if code >> i & 1 else -1.0 for i in range(T)])
    return traj.regret, traj
