"""The ndarray round loop that ``game_core.play_game`` replaced, kept as the
engine's reference.  Each round converts the action and the loss to float
n-vectors, stores them as rows of preallocated (T, n) arrays, keeps W as
an array summed with ``W + w`` and compares ``tolist()`` keys for the
moving flag; a changed action or loss is ball-checked.  The strategies get
what the other side returned, and W as a tuple of floats; every round is a
run of one (``observe(w, 1)``), and ``hold`` and ``repeats`` go unasked."""

import numpy as np

from switchlab.errors import BudgetViolationError
from switchlab.game_core import Trajectory, outside_ball


def reference_play_game(player, adversary, config) -> Trajectory:
    T, n, p, K = config.horizon_T, config.dimension_n, config.player_norm_p, config.budget_K
    q = config.adversary_norm_q
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
        if (key_w := w.tolist()) != prev_w and outside_ball(w, q):
            raise ValueError(f"round {t}: adversary loss leaves the unit {q}-ball "
                             f"in n = {n}: {raw_w}")
        prev_w = key_w
        L[i] = w
        W = W + w
        player.observe(raw_w, 1)
    return Trajectory.from_columns(config, X, L)
