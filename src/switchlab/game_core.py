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
adversaries hold no copy of it.  It advances by runs of rounds whose action
and loss stay bit-identical, as long as the player says it holds and the
adversary says it repeats.  ``worst_case_sign_regret``, the lab's one
exhaustive +-1 search, decides each distinct game state once with the same
round rule, one round at a time.

Actions, losses and W are immutable tuples of n floats.  Per run, NumPy
runs only for the L2 ball check at n >= 2 (``np.dot``'s BLAS kernel is a
sequential fused multiply-add where the CPU has one, which Python 3.11
cannot reproduce) and for a run's sum of non-integer losses
(``add_repeated``).  ``Trajectory.from_columns`` gets one row per run with
its length; it is the one place that derives the switch count, loss sum
and regret, and it builds the T rounds only when they are read.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from operator import add

import numpy as np

from .errors import BudgetViolationError, CapacityError, UnsupportedConfigError

INF = math.inf

#: slack used when checking norm-ball membership, absorbs normalization rounding
BALL_SLACK = 1e-12


def outside_ball(v, p: float) -> bool:
    """Whether the vector v leaves the unit p-ball, p = 2 or inf as a
    ``GameConfig`` holds it, by more than ``BALL_SLACK``.  A failed ``<=``
    puts a NaN entry outside.  The L2 norm has np.linalg.norm's bits: at
    n = 1 that is ``sqrt(v0 * v0)``, above it np.dot's fused multiply-adds."""
    if p == 2:
        norm = math.sqrt(v[0] * v[0] if len(v) == 1 else (arr := np.array(v, float)).dot(arr))
        return not norm <= 1.0 + BALL_SLACK
    return not all(abs(a) <= 1.0 + BALL_SLACK for a in v)


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


def as_integer(key: str, v) -> int:
    """``v`` as an int if it is one or an integral float; ``ValueError``
    naming ``key`` for anything else (a bool, a string, 2.5, None)."""
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class GameConfig:
    """One game instance: horizon, switch budget, dimension, geometry, seed.

    ``budget_K`` is a hard cap: feasible action sequences contain strictly
    fewer than K switches.  K > T is rejected up front (a T-round sequence
    can never use more than T-1 switches, so larger budgets only relax an
    already-vacuous constraint).  Losses lie in the same unit p-ball as
    actions, so ``player_norm_p`` is the adversary's norm too.
    """

    horizon_T: int
    budget_K: int
    dimension_n: int = 1
    player_norm_p: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for name in ("horizon_T", "budget_K", "dimension_n", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {type(value).__name__}")
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

    ``runs`` keeps one row per run: the actions and losses (read-only
    (R, n) arrays), the rounds each lasts and whether its first round
    moves.  ``rounds``, a read-only structured array of length T with
    fields ``action_x`` and ``loss_w`` (shape n each) and ``is_moving``, is
    built from them on first read.  An action sequence that uses switch
    number budget_K has no trajectory:
    :meth:`from_columns` raises ``BudgetViolationError``.
    """

    config: GameConfig
    switch_count: int
    cumulative_W: np.ndarray
    regret: float
    runs: tuple = field(repr=False)

    @classmethod
    def from_columns(cls, config: GameConfig, actions, losses, counts=None) -> "Trajectory":
        """Build a trajectory from its rows of actions and losses, row i held
        for ``counts[i]`` rounds (ints >= 1 summing to T; one round each by
        default); a list of scalars is one column.  Everything else is
        derived here, once per row: the moving flags, switch count and
        payoffs.  Switch number K raises ``BudgetViolationError`` with
        ``play_game``'s message and round.

        W and the regret have the bits of a round-by-round loop, since
        ``cumsum`` is strictly sequential: W is the ``cumsum`` of the losses
        repeated into T rows.  The regret is the payoff plus the dual norm
        of W.  A row's payoff is one 1 x n @ n x 1 matmul of a stack
        (``np.dot``'s kernel), the same in every round it covers, and the
        repeated payoffs are summed by ``cumsum``: bit for bit the loop
        ``payoff += np.dot(w_t, x_t)``.  Any other order (or ``einsum``)
        moves results in the last bit.
        """
        T, n = config.horizon_T, config.dimension_n
        X = np.array(actions, dtype=float).reshape(len(actions), -1)   # copies: rounds reads
        L = np.array(losses, dtype=float).reshape(len(losses), -1)     # them later
        c = np.ones(len(X), dtype=int) if counts is None else np.array(counts)
        if (X.shape != L.shape or X.shape[1:] != (n,) or c.shape != X.shape[:1]
                or c.dtype.kind not in "iu" or not (c >= 1).all() or c.sum() != T):
            raise ValueError(f"actions {X.shape} and losses {L.shape}, held for "
                             f"{c.shape} counts, must give shape (T, n) = {(T, n)}")
        moving = _moving_mask(X)   # per row; only a row's first round can move
        switches = int(np.count_nonzero(moving)) - 1
        if switches >= config.budget_K:
            K = config.budget_K
            raise _over_budget(int((np.cumsum(c) - c)[np.flatnonzero(moving)[K]]) + 1, K)
        W = np.repeat(L, c, axis=0)
        W = np.cumsum(W, axis=0, out=W)[-1].copy()   # not a view of all T rows
        payoffs = np.repeat((L[:, None, :] @ X[:, :, None]).ravel(), c)   # w_t . x_t per round
        regret = float(np.cumsum(payoffs, out=payoffs)[-1]) + dual_norm(W, config.player_norm_p)
        for a in (X, L, c, moving, W):
            a.setflags(write=False)
        return cls(config=config, switch_count=switches, cumulative_W=W, regret=regret,
                   runs=(X, L, c, moving))

    @cached_property
    def rounds(self) -> np.ndarray:
        """The T rounds, each row repeated for its count; built on first read."""
        X, L, c, moving = self.runs
        n = self.config.dimension_n
        rounds = np.zeros(self.config.horizon_T, dtype=[
            ("action_x", float, (n,)), ("loss_w", float, (n,)), ("is_moving", bool)])
        rounds["action_x"], rounds["loss_w"] = np.repeat(X, c, axis=0), np.repeat(L, c, axis=0)
        rounds["is_moving"][np.cumsum(c) - c] = moving   # each row's first round
        rounds.setflags(write=False)
        return rounds

    def block_lengths(self) -> list[int]:
        """Lengths of maximal stationary blocks, from the rows' moving flags."""
        _, _, c, moving = self.runs
        return np.diff((np.cumsum(c) - c)[moving], append=self.config.horizon_T).tolist()


def _over_budget(t: int, budget_K: int) -> BudgetViolationError:
    """The error of a move at round t that is switch number K."""
    return BudgetViolationError(f"round {t}: switch number {budget_K} with budget "
                                f"K={budget_K}", round_index=t)


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
            raise _over_budget(t, budget_K)
    return switches


def add_repeated(W: tuple, w: tuple, count: int) -> tuple:
    """W plus ``count`` copies of w, added one at a time in round order.
    If every entry is an integer-valued float and the largest magnitude
    times ``count + 1`` is below 2^53, each partial sum is an integer that
    a float holds exactly, so the sum is ``W_j + count * w_j``, signed
    zeros included.  Otherwise (NaN and inf too) ``np.add.accumulate``
    over the rows W, w, ..., w, which is sequential, gives those bits."""
    if count == 1:
        # built at size n; tuple(map(...)) would shrink a 10-tuple, and the old
        # tuples would pile up (2000 per size) on a free list it never reads
        return (*map(add, W, w),)
    if (all(type(a) is float and a.is_integer() for a in W + w)
            and max(map(abs, W + w)) * (count + 1) < 2.0 ** 53):
        return (*(a + count * b for a, b in zip(W, w)),)
    rows = np.empty((count + 1, len(W)))
    rows[0], rows[1:] = W, w
    return tuple(np.add.accumulate(rows, out=rows)[-1].tolist())


def _run_length(hold, repeats, left: int, t: int) -> int:
    """The rounds a run plays from round t: the least of the player's
    ``hold``, the adversary's ``repeats`` and the ``left`` rounds of the
    game.  ``ValueError`` unless hold and repeats are ints >= 1."""
    if type(hold) is type(repeats) is int and hold >= 1 and repeats >= 1:
        return min(hold, repeats, left)
    side, count = (("player hold", hold) if type(hold) is not int or hold < 1
                   else ("adversary repeats", repeats))
    raise ValueError(f"round {t}: {side} must be an int >= 1, not {count!r}")


def play_game(player, adversary, config: GameConfig) -> Trajectory:
    """Run the adaptive protocol for T rounds and return the trajectory.

    The game advances by runs: stretches of rounds whose action and loss
    stay bit-identical.  Per run, the player decides x_t from its own
    state, the adversary answers ``respond(x_t, is_moving, W)`` with w_t,
    and the run plays ``c = min(hold(), repeats(W, w_t), T - t + 1)``
    rounds (both default to one round).  The player then observes
    ``(w_t, c)``.  Actions and losses are tuples of n floats.
    ``is_moving`` is the exact inequality, and ``W`` the sum of the earlier
    losses (zeros at t = 1) in round order, the bits
    :meth:`Trajectory.from_columns` gets; :func:`add_repeated` adds a run's
    c losses.  A changed action or loss goes through
    :func:`_check_change`, whose errors name the run's first round, where
    any move happens.  Each run's action, loss and length are kept for
    :meth:`Trajectory.from_columns`, one row per run, so a game of R runs
    keeps R rows alive until it ends: T rows when neither side declares.

    Both strategies must be freshly initialized for ``config``.
    """
    T, n, p, K = config.horizon_T, config.dimension_n, config.player_norm_p, config.budget_K
    decide, respond, observe = player.decide, adversary.respond, player.observe
    hold, repeats = player.hold, adversary.repeats
    xs, ws, counts = [], [], []   # per run: the n floats of x and of w, and c
    W = (0.0,) * n
    prev, prev_w, switches, t = None, None, 0, 1

    while t <= T:
        x = decide()
        moving = x != prev   # a bool; an ndarray gives an array, never False
        if moving is not False:
            switches = _check_change(x, t, n, p, "player action", prev, switches, K)
        w = respond(x, moving, W)
        if (w != prev_w) is not False:
            _check_change(w, t, n, p, "adversary loss")
        c = _run_length(hold(), repeats(W, w), T - t + 1, t)
        W = add_repeated(W, w, c)
        prev, prev_w = x, w
        xs += x
        ws += w
        counts.append(c)
        observe(w, c)
        t += c

    # flat lists of floats: NumPy reads them several times faster than tuples
    return Trajectory.from_columns(config, np.reshape(xs, (-1, n)), np.reshape(ws, (-1, n)), counts)


#: the 1-d losses -1 and +1; index ``s >= 0`` gives sign(s), +1 at 0
SIGN_LOSSES = ((-1.0,), (1.0,))


#: the most states the sign search stores: a 42 MiB peak (tracemalloc, minibatch)
MAX_SIGN_STATES = 2 ** 17


def _state_key(value, alive: dict):
    """A hashable snapshot of one player attribute: arrays by dtype, shape
    and bytes, floats by their bits (-0.0 is not 0.0), ints by value,
    tuples and lists of floats by their packed bits, other tuples, lists
    and sets by content.  Anything else is keyed by identity
    and held in ``alive``, which the search keeps for its whole length,
    since CPython reuses the id of a freed object."""
    if isinstance(value, (tuple, list)):   # the commonest first; no value is two of these
        if all([isinstance(v, float) for v in value]):   # the bits of all of them at once
            return type(value), struct.pack(f"{len(value)}d", *value)
        return type(value), tuple([_state_key(v, alive) for v in value])
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return struct.pack("d", value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (set, frozenset)):
        return frozenset(_state_key(v, alive) for v in value)
    alive[id(value)] = value
    return (id(value),)


def worst_case_sign_regret(player_factory, config: GameConfig) -> tuple[float, Trajectory]:
    """Max regret of a player over every +-1 loss sequence (n = 1).

    A memoized search over game states, one level per round.  A state is
    (round, W, the previous action, switches used, a snapshot of
    ``vars(player)`` by :func:`_state_key`, or by name alone for an
    attribute still bound to the factory player's own object); by the
    ``Player`` fork contract the attributes determine the player's future
    play, so sign prefixes that reach one state share everything after it,
    and each state plays one round by ``play_game``'s rule (the
    exact-``!=`` moving flag, then :func:`_check_change` on a change) once,
    observing each loss as a run of one round.  Its children are forked
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
    root = player_factory()
    constants = vars(root).copy()   # a child's attribute still bound to these is keyed by name
    levels = []     # per round, each state's action and the indices of its two children
    failures = []   # (smallest code of a failing sequence, its error); levels are then unread
    # player, W, previous action, switches, the smallest code that reaches the state
    frontier, stored = [[root, 0, None, 0, 0]], 1
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
                    child.observe(loss, 1)
                except Exception as exc:
                    failures.append((code, exc))
                    continue
                W_next = W + loss[0]
                state = (W_next,) if t == T else (
                    W_next, x[0], used,
                    tuple([name if constants.get(name) is v else (name, _state_key(v, alive))
                           for name, v in vars(child).items()]))
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
        best = [max((SIGN_LOSSES[bit][0] * x + best[j][0], 2 * best[j][1] - bit)
                    for bit, j in enumerate(children)) for x, children in level]
    code, j, actions = -best[0][1], 0, []
    for i, level in enumerate(levels):
        x, children = level[j]
        actions.append(x)
        j = children[code >> i & 1]
    traj = Trajectory.from_columns(config, actions,
                                   [SIGN_LOSSES[code >> i & 1][0] for i in range(T)])
    return traj.regret, traj
