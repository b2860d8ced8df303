"""Adversary strategies that realize the regret lower bounds.

Every adversary is a self-contained state machine with one method,
``respond(player_x, is_moving) -> w``.  The moving flag is computed by the
game engine from exact action equality and passed in; adversaries never
re-derive it.  One instance serves one game.

The id "stopping" is the one-coordinate product adversary (n = 1 only).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedConfigError
from .game_core import BALL_SLACK, GameConfig, norm_of

_ZERO_TOL = 1e-12


#: the 1-d losses -1 and +1, read-only; index ``s >= 0`` gives sign(s), +1 at 0
SIGN_LOSSES = (np.array([-1.0]), np.array([1.0]))
for _w in SIGN_LOSSES:
    _w.setflags(write=False)


class Adversary:
    def respond(self, player_x: np.ndarray, is_moving: bool) -> np.ndarray:
        raise NotImplementedError


class ConstantAdversary(Adversary):
    """Plays a fixed loss vector every round (the zero vector by default)."""

    def __init__(self, config: GameConfig, w: np.ndarray | float | None = None):
        n = config.dimension_n
        self._w = np.zeros(n) if w is None else np.asarray(w, dtype=float).reshape(n) + 0.0
        if norm_of(self._w, config.adversary_norm_q) > 1.0 + BALL_SLACK:
            raise ValueError("constant loss leaves the adversary ball")
        self._w.setflags(write=False)

    def respond(self, player_x, is_moving):
        return self._w


class SignAdversary(Adversary):
    """1-d sign plays, +1 at zero.

    variant="bias":   the constant adversary with w = sign(bias_Z) (+1 at
                      Z = 0), whatever the player does.  It stands for
                      w_t = sign(Z + W_t) with W_t the running sum of its own
                      emissions: each emission moves W_t towards sign(Z), so
                      Z + W_t never changes sign.
    variant="action": w_t = sign(x_t).

    Both variants answer from a pair of read-only losses fixed at
    construction, ``(w if x_t < 0, w if x_t >= 0)``; the bias pair holds
    one loss twice.
    """

    def __init__(self, config: GameConfig, variant: str = "bias", bias_Z: float = 0.0):
        if config.dimension_n != 1:
            raise UnsupportedConfigError("sign adversary is one-dimensional")
        if variant not in ("bias", "action"):
            raise ValueError(f"unknown sign variant {variant!r}")
        self.variant = variant
        self.bias_Z = float(bias_Z)
        if variant == "bias":
            self._by_sign = (SIGN_LOSSES[self.bias_Z >= 0],) * 2
        else:
            self._by_sign = SIGN_LOSSES

    def respond(self, player_x, is_moving):
        return self._by_sign[float(player_x[0]) >= 0]


class StoppingCore:
    """1-d lower-bound adversary with a stopping condition, one coordinate.

    Let W_t be the sum of its previous emissions.  Once |W_t| >= T/sqrt(K)
    it latches and plays 0 forever, freezing the accumulated regret.
    Before that it plays +1 when x_t >= -W_t*sqrt(K)/T (ties resolve to +1)
    and -1 otherwise.  Forces regret >= T/(2 sqrt(K)) against any feasible
    player.
    """

    def __init__(self, horizon_T: int, budget_K: int):
        self.threshold = horizon_T / math.sqrt(budget_K)
        self._slope = math.sqrt(budget_K) / horizon_T
        self.running_W = 0.0
        self.stopped = False

    def step(self, x: float) -> float:
        if self.stopped or abs(self.running_W) >= self.threshold:
            self.stopped = True
            return 0.0
        w = 1.0 if x >= -self.running_W * self._slope else -1.0
        self.running_W += w
        return w


class ProductAdversary(Adversary):
    """Coordinate-product adversary for the Linf pairing.

    Runs one independent stopping core per coordinate; coordinate j of the
    emission is the 1-d response to player_x[j].  Since the Linf game's
    regret decomposes coordinatewise (L1 dual norm), it forces regret
    >= n*T/(2 sqrt(K)).
    """

    def __init__(self, config: GameConfig):
        if config.dimension_n > 1 and config.adversary_norm_q != math.inf:
            raise UnsupportedConfigError(
                "product adversary needs the Linf pairing for n > 1")
        self._cores = [StoppingCore(config.horizon_T, config.budget_K)
                       for _ in range(config.dimension_n)]

    def respond(self, player_x, is_moving):
        return np.array([core.step(float(player_x[j]))
                         for j, core in enumerate(self._cores)])


class OrthogonalAdversary(Adversary):
    """Unit-L2 adversary that copies the player's switching pattern (n >= 2).

    On a moving round it emits a unit vector w with w.player_x >= 0 and
    w.running_W >= 0, built so both inner products are exactly 0:

      * n > 2: Gram-Schmidt a unit vector orthogonal to both player_x and
        the running loss sum (first standard basis vector with a nonzero
        residual; sign fixed so the last nonzero coordinate is positive);
      * n = 2: the +90-degree rotation of the running sum, normalized, with
        the sign flipped if needed so w.player_x >= 0;
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
        self._n = config.dimension_n
        self.running_W = np.zeros(self._n)
        self.last_w: np.ndarray | None = None

    def respond(self, player_x, is_moving):
        if is_moving or self.last_w is None:
            w = _orthogonal_unit(np.asarray(player_x, dtype=float), self.running_W)
            w.setflags(write=False)
            self.last_w = w
        self.running_W = self.running_W + self.last_w
        return self.last_w


def _rot90(v: np.ndarray) -> np.ndarray:
    # counterclockwise quarter turn in the plane
    return np.array([-v[1], v[0]])


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
        v = _rot90(base)
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
