"""The ndarray round loop that ``game_core.play_game`` replaced, kept as the
engine's reference.  Each round converts the action and the loss to float
n-vectors, stores them as rows of preallocated (T, n) arrays, keeps W as
an array summed with ``W + w`` and compares ``tolist()`` keys for the
moving flag; a changed action or loss is ball-checked.  The strategies get
what the other side returned, and W as a tuple of floats; every round is a
run of one (``observe(w, 1)``), and ``hold`` and ``repeats`` go unasked.

The NumPy forms of the per-run arithmetic that the engine and the players
now do on tuples are kept here too: ``reference_add_repeated``,
``reference_outside_ball`` and ``reference_epoch_step``, and the eager
build of ``Trajectory.rounds`` and its block lengths over all T rows.

``policy_row`` states the fugal policy's row layout apart from
``fugal_engine``, which only steps from a row to its child."""

import math
from operator import add

import numpy as np

from switchlab.errors import BudgetViolationError
from switchlab.game_core import BALL_SLACK, Trajectory, outside_ball


def reference_play_game(player, adversary, config) -> Trajectory:
    T, n, p, K = config.horizon_T, config.dimension_n, config.player_norm_p, config.budget_K
    X, L = np.empty((2, T, n))   # actions, losses
    W = np.zeros(n)
    prev, prev_w, switches = None, None, 0
    for i in range(T):
        t = i + 1
        raw_x = player.decide()
        x = np.asarray(raw_x, dtype=float).reshape(n)
        key = x.tolist()
        is_moving = key != prev
        if is_moving:
            if outside_ball(x, p):
                raise ValueError(f"round {t}: player action leaves the unit {p}-ball "
                                 f"in n = {n}: {raw_x}")
            if prev is not None:
                switches += 1
                if switches >= K:
                    raise BudgetViolationError(f"round {t}: switch number {switches} with "
                                               f"budget K={K}", round_index=t)
        prev = key
        X[i] = x
        raw_w = adversary.respond(raw_x, is_moving, tuple(W.tolist()))
        w = np.asarray(raw_w, dtype=float).reshape(n)
        if (key_w := w.tolist()) != prev_w and outside_ball(w, p):
            raise ValueError(f"round {t}: adversary loss leaves the unit {p}-ball "
                             f"in n = {n}: {raw_w}")
        prev_w = key_w
        L[i] = w
        W = W + w
        player.observe(raw_w, 1)
    return Trajectory.from_columns(config, X, L)


def policy_row(prefix) -> int:
    """Row of the sign prefix (s_1..s_l) in ``FugalPolicy.nodes``: the
    level-l code c = sum_j [s_j = -1] 2^(j-1), after the 2^l - 1 rows of
    the shorter prefixes."""
    return (1 << len(prefix)) - 1 + sum(1 << j for j, s in enumerate(prefix) if s < 0)


def reference_add_repeated(W: tuple, w: tuple, count: int) -> tuple:
    """W plus ``count`` copies of w by ``np.add.accumulate`` over the rows
    W, w, ..., w; one round is one tuple addition."""
    if count == 1:
        return (*map(add, W, w),)
    rows = np.empty((count + 1, len(W)))
    rows[0], rows[1:] = W, w
    return tuple(np.add.accumulate(rows, out=rows)[-1].tolist())


def reference_outside_ball(v, p: float) -> bool:
    v = np.asarray(v, dtype=float)
    norm = math.sqrt(float(v.dot(v))) if p == 2 else float(np.abs(v).max())
    return not norm <= 1.0 + BALL_SLACK


def reference_epoch_step(point: tuple, gradient: tuple, step_size: float, epoch_length: int,
                         p: float) -> tuple:
    """The mini-batch player's next point on arrays: the projected step from
    ``point`` along the epoch's average ``gradient``."""
    with np.errstate(all="ignore"):
        x = np.array(point) - step_size * (np.array(gradient) / epoch_length)
        if p == 2:
            nrm = float(np.linalg.norm(x))
            x = x if nrm <= 1.0 else x / nrm
        else:
            x = np.clip(x, -1.0, 1.0)
        return tuple((x + 0.0).tolist())


def eager_rounds(config, X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The structured (T,) array of the per-round columns X and L, with the
    moving flags derived over all T rows."""
    rounds = np.zeros(config.horizon_T, dtype=[("action_x", float, (config.dimension_n,)),
                                               ("loss_w", float, (config.dimension_n,)),
                                               ("is_moving", bool)])
    rounds["action_x"], rounds["loss_w"] = X, L
    rounds["is_moving"][0] = True
    rounds["is_moving"][1:] = (X[1:] != X[:-1]).any(axis=1)
    return rounds


def eager_block_lengths(rounds: np.ndarray) -> list[int]:
    starts = np.flatnonzero(rounds["is_moving"])
    return np.diff(starts, append=len(rounds)).tolist()
