"""Brute-force exact minimax solvers for tiny 1-d games.

Ground truth against which the closed-form constants and bounds are
checked.  The value

    V = inf_{x_1} sup_{w_1} ... inf_{x_T} sup_{w_T}
        sum_t w_t x_t + |Z + sum_t w_t|,   switches(x) < K,

is computed by backward induction over the state (round, switches left,
current action, accumulated loss sum W).  Only the player is discretized
(onto an odd uniform grid containing 0 and +-1); restricting the player
can only raise the value, so the oracle upper-bounds the continuum game
and refining the grid brings it down monotonically.  The adversary keeps
its exact optimum at the endpoints {-1, +1}: for any fixed continuation
the payoff is convex in each w_t, so the per-round sup over [-1, 1] is
attained at an endpoint.  The acceptance check ``oracle.sandwich`` checks
that collapse: ``dense_adversary_value`` re-solves every game with T <= 3
on a finer adversary grid, and must match the +-1 value to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .fugal_engine import quadratic_floor

#: most floats in one value array of the solver, K x x_grid x (2T+3); its
#: peak is about five such arrays, 40 MiB at the cap (tracemalloc)
MAX_ORACLE_FLOATS = 2 ** 20

#: most float-steps of one solve, the value array times its T rounds, which
#: bounds time as the float cap bounds memory: on a 2-core host (96, 4, 201)
#: as (T, K, x_grid) is 15.1M float-steps and 0.4 s, while (8000, 1, 3) fits
#: the float cap but is 384M float-steps and 1.7 s
MAX_ORACLE_FLOAT_STEPS = 2 ** 25


@dataclass(frozen=True)
class OracleConfig:
    """Instance for the exact solver.  ``x_grid`` is an odd count of
    equispaced player actions in [-1, 1] so 0 and +-1 are representable."""

    horizon_T: int
    budget_K: int
    x_grid: int = 41
    initial_bias_Z: float = 0.0

    def __post_init__(self):
        if not 1 <= self.budget_K <= self.horizon_T:
            raise ValueError("budget_K must satisfy 1 <= K <= T")
        if self.x_grid < 3 or self.x_grid % 2 == 0:
            raise ValueError("x_grid must be an odd count >= 3")
        if not math.isfinite(self.initial_bias_Z):
            raise ValueError(f"initial_bias_Z must be finite, got {self.initial_bias_Z}")
        floats = self.budget_K * self.x_grid * (2 * self.horizon_T + 3)
        if floats > MAX_ORACLE_FLOATS:
            raise CapacityError(f"value array of {floats} floats exceeds {MAX_ORACLE_FLOATS}")
        if floats * self.horizon_T > MAX_ORACLE_FLOAT_STEPS:
            raise CapacityError(f"{floats * self.horizon_T} float-steps exceed "
                                f"MAX_ORACLE_FLOAT_STEPS = {MAX_ORACLE_FLOAT_STEPS}")

    @property
    def grid_slack(self) -> float:
        # Lipschitz-1 payoff per round times the half-step of the action grid,
        # over T rounds; conservative cover for player discretization.
        return 2.0 * self.horizon_T / (self.x_grid - 1)


@dataclass(frozen=True)
class OracleReport:
    """Exact (player-discretized) value plus the bound sandwich it was
    checked against.  The discretization bias is one-sided: value >=
    continuum value, shrinking as x_grid is refined."""

    value: float
    config: OracleConfig
    witness_first_action: float
    bound_lower: float
    bound_upper: float

    @property
    def grid_slack(self) -> float:
        return self.config.grid_slack


def minimax_sandwich(T: int, K: int, n: int = 1, p: float = 2.0,
                     Z: float = 0.0) -> tuple[float, float]:
    """Sandwich on the minimax regret V of T rounds with fewer than K
    switches, for the player's L_p ball in n dimensions:

        1-d:         max(T a_K(0), |Z|) <= V <= |Z| + ceil(T/K) R(K),
        L2, n >= 2:  T/sqrt(K)          <= V <= ceil(T/K) sqrt(K),
        Linf box:    n times the 1-d pair (the coordinates decouple),

    where a_K(0) is the quadratic-floor value at the origin (1 for K=1,
    1/sqrt(2K) beyond) and Z is the initial bias of each coordinate."""
    if n > 1 and p == 2:
        if Z:
            raise ValueError("the L2 sandwich has no bias term")
        return T / math.sqrt(K), math.ceil(T / K) * math.sqrt(K)
    lower = max(T * quadratic_floor(K, 0.0), abs(Z))
    upper = abs(Z) + math.ceil(T / K) * unconstrained_regret_closed_form(K)
    return n * lower, n * upper


def _root_values(T: int, K: int, X: np.ndarray, Z: float, denom: int,
                 js) -> np.ndarray:
    """Backward induction of the game with the adversary on {j/denom : j in js}.

    State axes: switches remaining k = 0..K-1, current action index, and W
    on a grid of step 1/denom reaching (T+1) beyond either side of 0.
    Switching to a different action consumes a switch; k = 0 pins the
    action.  Edge columns the adversary step cannot fill hold -inf; they
    lie outside the W range reachable from the root, so they never reach
    it.  Returns the root value for each free first action in ``X``.
    """
    half = denom * (T + 1)
    Wn = 2 * half + 1
    Wvals = np.arange(-half, half + 1, dtype=float) / denom
    V = np.broadcast_to(np.abs(Z + Wvals), (K, len(X), Wn)).copy()

    def adversary_step(V: np.ndarray) -> np.ndarray:
        # A[k, i, c] = max_j ((j/denom) x_i + V[k, i, c + j])
        A = np.full_like(V, -np.inf)
        lo, hi = denom, Wn - denom
        for j in js:
            cand = (j / denom) * X[None, :, None] + V[:, :, lo + j:hi + j]
            A[:, :, lo:hi] = np.maximum(A[:, :, lo:hi], cand)
        return A

    for _t in range(T, 1, -1):
        A = adversary_step(V)
        Vnew = A.copy()
        if K > 1:
            best_move = A[:-1].min(axis=1, keepdims=True)
            Vnew[1:] = np.minimum(A[1:], best_move)
        V = Vnew

    return adversary_step(V)[K - 1, :, half]


def exact_minimax_1d(cfg: OracleConfig) -> OracleReport:
    """Backward-induction value of the switching-constrained 1-d game, with
    the adversary at the endpoints {-1, +1} (so W stays integral).  The
    first round's action choice is free."""
    X = np.linspace(-1.0, 1.0, cfg.x_grid)
    root = _root_values(cfg.horizon_T, cfg.budget_K, X, cfg.initial_bias_Z, 1, (-1, 1))
    idx = int(np.argmin(root))
    lower, upper = minimax_sandwich(cfg.horizon_T, cfg.budget_K,
                                    Z=cfg.initial_bias_Z)
    return OracleReport(value=float(root[idx]), config=cfg,
                        witness_first_action=float(X[idx]),
                        bound_lower=lower, bound_upper=upper)


def dense_adversary_value(T: int, K: int, x_grid: int = 21, denom: int = 5) -> float:
    """Same game but with the adversary on the grid {j/denom : |j| <= denom}
    (T <= 4), against which the endpoint restriction is checked."""
    if T > 4:
        raise CapacityError("dense-adversary validation is for T <= 4")
    X = np.linspace(-1.0, 1.0, x_grid)
    return float(_root_values(T, K, X, 0.0, denom, range(-denom, denom + 1)).min())


def unconstrained_regret_closed_form(K: int) -> float:
    """Minimax regret R(K) of the unconstrained K-round 1-d game:

        R(K) = (K / 2^K) C(K, K/2)              for even K,
        R(K) = (K / 2^(K-1)) C(K-1, (K-1)/2)    for odd K,

    with R(K) = R(K+1) for odd K."""
    if K < 1:
        raise ValueError("K must be a positive integer")
    if K % 2 == 0:
        return K * math.comb(K, K // 2) / 2 ** K
    return K * math.comb(K - 1, (K - 1) // 2) / 2 ** (K - 1)


def tk_inequality_check(T: int, K: int | np.ndarray) -> bool:
    """Whether ceil(T/K) <= 2T / sqrt(K(K+1)) for K an int or an integer
    array (true for all 1 <= K <= T)."""
    K = np.asarray(K)
    if np.any(K < 1) or np.any(K > T):
        raise ValueError("need 1 <= K <= T")
    return bool(np.all(-(-T // K) <= 2.0 * T / np.sqrt(K * (K + 1.0))))


def write_oracle_csv(reports: list[OracleReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("T,K,Z,value,lower,upper\n")
        for r in reports:
            c = r.config
            fh.write(",".join([
                str(c.horizon_T), str(c.budget_K), f"{c.initial_bias_Z:.17g}",
                f"{r.value:.17g}", f"{r.bound_lower:.17g}", f"{r.bound_upper:.17g}",
            ]) + "\n")
