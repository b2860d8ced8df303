"""Adversary strategies that realize the regret lower bounds.

Every adversary has one method, ``respond(player_x, is_moving, W) -> w``;
``player_x``, ``W`` and ``w`` are immutable tuples of n floats, and NumPy
runs only on the orthogonal adversary's moving rounds.  The game engine
(``game_core.play_game``) derives the moving flag from exact action
equality and keeps W, the sum of the losses before this round; adversaries
never re-derive either.  One instance serves one game.

The id "stopping" is the one-coordinate product adversary (n = 1 only),
and "sign" answers sign(x_t); a sign fixed in advance is "constant".
The exhaustive sign search over every +-1 sequence is not an adversary
here: it is ``game_core.worst_case_sign_regret``, a memoized state search.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedConfigError
from .game_core import SIGN_LOSSES, GameConfig, outside_ball

_ZERO_TOL = 1e-12


class Adversary:
    def respond(self, player_x: tuple, is_moving: bool, W: tuple) -> tuple:
        raise NotImplementedError


class ConstantAdversary(Adversary):
    """Plays a fixed loss vector every round (the zero vector by default)."""

    def __init__(self, config: GameConfig, w: np.ndarray | float | None = None):
        n = config.dimension_n
        self._w = (0.0,) * n if w is None else tuple(
            (np.asarray(w, dtype=float).reshape(n) + 0.0).tolist())
        if outside_ball(self._w, config.adversary_norm_q):
            raise ValueError("constant loss leaves the adversary ball")

    def respond(self, player_x, is_moving, W):
        return self._w


class SignAdversary(Adversary):
    """1-d w_t = sign(x_t), +1 at zero, from the pair ``SIGN_LOSSES``.  (A
    fixed sign, whatever the player does, is the constant adversary.)"""

    def __init__(self, config: GameConfig):
        if config.dimension_n != 1:
            raise UnsupportedConfigError("sign adversary is one-dimensional")

    def respond(self, player_x, is_moving, W):
        return SIGN_LOSSES[player_x[0] >= 0]


class ProductAdversary(Adversary):
    """Lower-bound adversary with a stopping condition, one per coordinate.

    In coordinate j, once |W_j| >= T/sqrt(K) it plays 0, so W_j and the
    accumulated regret freeze there.  Before that it plays +1 when
    x_j >= -W_j*sqrt(K)/T (ties resolve to +1) and -1 otherwise.  In one
    dimension (the id "stopping") this forces regret >= T/(2 sqrt(K))
    against any feasible player.  Since the Linf game's regret decomposes
    coordinatewise (L1 dual norm), n coordinates force >= n*T/(2 sqrt(K)).
    ``respond`` maps one per-coordinate rule, a closure (no attribute
    lookups), over the (x_j, W_j) pairs.
    """

    def __init__(self, config: GameConfig):
        if config.dimension_n > 1 and config.adversary_norm_q != math.inf:
            raise UnsupportedConfigError(
                "product adversary needs the Linf pairing for n > 1")
        threshold = config.horizon_T / math.sqrt(config.budget_K)
        slope = math.sqrt(config.budget_K) / config.horizon_T
        self._coordinate = lambda x, Wj: (0.0 if abs(Wj) >= threshold else
                                          1.0 if x >= -Wj * slope else -1.0)

    def respond(self, player_x, is_moving, W):
        return (*map(self._coordinate, player_x, W),)


class OrthogonalAdversary(Adversary):
    """Unit-L2 adversary that copies the player's switching pattern (n >= 2).

    On a moving round it emits a unit vector w with w.player_x >= 0 and
    w.W >= 0 (W the loss sum before this round), built so both inner
    products are exactly 0:

      * n > 2: Gram-Schmidt a unit vector orthogonal to both player_x and
        W (first standard basis vector with a nonzero residual; sign fixed
        so the last nonzero coordinate is positive);
      * n = 2: the +90-degree rotation of W, normalized, with the sign
        flipped if needed so w.player_x >= 0;
      * degenerate: both vectors zero -> e1; exactly one zero -> a unit
        vector orthogonal to the nonzero one, same tie-breaks.

    On a stationary round it re-emits the previous vector bit-identically.
    Orthogonality of every new block direction to the accumulated sum gives
    ||W_T||^2 = sum_i M_i^2 over block lengths M_i, hence regret
    >= T/sqrt(K) by Cauchy-Schwarz.
    """

    def __init__(self, config: GameConfig):
        if config.dimension_n < 2:
            raise UnsupportedConfigError("orthogonal adversary needs n >= 2")
        if config.player_norm_p != 2:
            raise UnsupportedConfigError("orthogonal adversary plays in the L2 pairing")
        self.last_w: tuple | None = None

    def respond(self, player_x, is_moving, W):
        if is_moving or self.last_w is None:
            w = _orthogonal_unit(np.asarray(player_x, dtype=float), np.asarray(W, dtype=float))
            self.last_w = tuple(w.tolist())
        return self.last_w


def _orthogonal_unit(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    x_zero = float(np.linalg.norm(x)) <= _ZERO_TOL
    w_zero = float(np.linalg.norm(W)) <= _ZERO_TOL

    if x_zero and w_zero:
        e1 = np.zeros(n)
        e1[0] = 1.0
        return e1

    if n == 2:
        base = x if w_zero else W
        v = np.array([-base[1], base[0]])   # counterclockwise quarter turn
        v = v / np.linalg.norm(v)
        if float(np.dot(v, x)) < 0.0:
            v = -v
        return v + 0.0

    basis: list[np.ndarray] = []
    for src in (x, W):
        u = src.astype(float).copy()
        for b in basis:
            u -= np.dot(u, b) * b
        for b in basis:  # second pass keeps the basis orthogonal to roundoff
            u -= np.dot(u, b) * b
        nu = float(np.linalg.norm(u))
        if nu > _ZERO_TOL:
            basis.append(u / nu)

    for j in range(n):
        r = np.zeros(n)
        r[j] = 1.0
        for b in basis:
            r -= np.dot(r, b) * b
        for b in basis:
            r -= np.dot(r, b) * b
        nr = float(np.linalg.norm(r))
        if nr > 1e-9:
            w = r / nr
            nz = np.nonzero(np.abs(w) > _ZERO_TOL)[0]
            if nz.size and w[nz[-1]] < 0:
                w = -w
            return w + 0.0
    raise RuntimeError("no orthogonal direction found (unreachable for n > 2)")


def stopping(config: GameConfig) -> ProductAdversary:
    if config.dimension_n != 1:
        raise UnsupportedConfigError("the stopping adversary is 1-d; use product for n > 1")
    return ProductAdversary(config)


def zero(config: GameConfig) -> ConstantAdversary:
    return ConstantAdversary(config)


#: each adversary id's constructor; its keyword arguments are the id's params
ADVERSARIES = {"orthogonal": OrthogonalAdversary, "stopping": stopping, "sign": SignAdversary,
               "product": ProductAdversary, "constant": ConstantAdversary, "zero": zero}
ADVERSARY_IDS = tuple(ADVERSARIES)


def make_adversary(adversary_id: str, config: GameConfig, params: dict | None = None) -> Adversary:
    if adversary_id not in ADVERSARIES:
        raise ValueError(f"unknown adversary id {adversary_id!r}")
    return ADVERSARIES[adversary_id](config, **(params or {}))
