"""Brute-force exact minimax solver for small 1-d games, the ground truth
for the closed-form constants and bounds.  The value

    V = inf_{x_1} sup_{w_1} ... inf_{x_T} sup_{w_T}
        sum_t w_t x_t + |Z + sum_t w_t|,   switches(x) < K,

comes from backward induction over the round t, the switches left k and
the loss sum W, each cost-to-go a piecewise-linear function of the held
action x on [-1, 1], held exactly (up to float roundoff) by its (x, y)
breakpoints from x = -1 to 1:

    A_k(t, x, W) = max_w (w x + V_k(t+1, x, W+w)),
    V_k(t, x, W) = min(A_k(t, x, W), min_y A_(k-1)(t, y, W))   (V_0 = A_0),
    V(T+1, x, W) = |Z + W|,   V = min_x A_(K-1)(1, x, 0).

The adversary plays only {-1, +1}: for any fixed continuation the payoff
is convex in each w_t, so the sup over [-1, 1] is at an endpoint.  The
check ``oracle.sandwich`` tests that collapse against
``dense_adversary_value``, the adversary on {j/5 : |j| <= 5}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CapacityError
from .fugal_engine import quadratic_floor

#: most breakpoints the value functions of one solve store: a bound on its
#: memory and, at about 4 us each (2-core host), on its time, about 1 s
MAX_ORACLE_BREAKPOINTS = 2 ** 18


@dataclass(frozen=True)
class OracleConfig:
    """Instance for the exact solver."""

    horizon_T: int
    budget_K: int
    initial_bias_Z: float = 0.0

    def __post_init__(self):
        for name in ("horizon_T", "budget_K"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {type(value).__name__}")
        if not 1 <= self.budget_K <= self.horizon_T:
            raise ValueError("budget_K must satisfy 1 <= K <= T")
        if not math.isfinite(self.initial_bias_Z):
            raise ValueError(f"initial_bias_Z must be finite, got {self.initial_bias_Z}")


@dataclass(frozen=True)
class OracleReport:
    """Exact value of the game, the first action that attains it (the one
    of least |x|), and the bound sandwich it was checked against."""

    value: float
    config: OracleConfig
    witness_first_action: float
    bound_lower: float
    bound_upper: float


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


def _flat(c: float) -> list:
    return [(-1.0, c), (1.0, c)]


def _combine(f: list, g: list, pick) -> list:
    """``pick`` (max or min) of two piecewise-linear functions, pointwise:
    the breakpoints of both and each crossing, less every breakpoint within
    1e-12 of the chord of its neighbours, so that dropping one moves the
    function by at most that.  Slopes are multiples of the adversary's
    step, so such a breakpoint is collinear or a copy of its neighbour
    split off by roundoff."""
    x0, a0, b0 = -1.0, f[0][1], g[0][1]
    pts = [(x0, pick(a0, b0))]
    i = j = 1
    while i < len(f):
        (xf, yf), (xg, yg) = f[i], g[j]
        if xf < xg:
            (xp, yp), x1, a1 = g[j - 1], xf, yf
            b1 = yp + (yg - yp) * (x1 - xp) / (xg - xp)
            i += 1
        elif xg < xf:
            (xp, yp), x1, b1 = f[i - 1], xg, yg
            a1 = yp + (yf - yp) * (x1 - xp) / (xf - xp)
            j += 1
        else:
            x1, a1, b1 = xf, yf, yg
            i += 1
            j += 1
        d0, d1 = a0 - b0, a1 - b1
        if d0 * d1 < 0:   # the two lines cross inside (x0, x1)
            r = d0 / (d0 - d1)
            xc = x0 + (x1 - x0) * r
            if x0 < xc < x1:
                pts.append((xc, a0 + (a1 - a0) * r))
        pts.append((x1, pick(a1, b1)))
        x0, a0, b0 = x1, a1, b1
    out = pts[:2]
    for x, y in pts[2:]:
        (xa, ya), (xb, yb) = out[-2], out[-1]
        if abs(ya + (y - ya) * (xb - xa) / (x - xa) - yb) <= 1e-12:
            out.pop()
        out.append((x, y))
    return out


def _roots(T: int, K: int, Z: float, denom: int, letters: range) -> list:
    """The root functions A_k(1, ., 0), k < K, of the game at budgets 1..K
    with the adversary on {j/denom : j in letters}, W counted in 1/denom.
    Round t + 1 runs over the sums W of t letters.  Raises ``CapacityError``
    once the stored V hold over ``MAX_ORACLE_BREAKPOINTS`` breakpoints."""
    lo, hi, step = letters[0], letters[-1], letters.step   # t letters sum to t lo..t hi
    V = {W: [_flat(abs(Z + W / denom))] for W in range(T * lo, T * hi + 1, step)}
    stored = 0
    for t in range(T - 1, -1, -1):
        # the T - t - 1 rounds after round t + 1 use at most that many
        # switches, so A_k = A_(n-1) from k = n on, and V_k = V_n past n
        n = min(K, T - t)
        nxt = {}
        for W in range(t * lo, t * hi + 1, step):   # the last is W = 0 at t = 0, the root
            a = [reduce(lambda f, g: _combine(f, g, max),
                        ([(x, y + j / denom * x) for x, y in V[W + j][k]] for j in letters))
                 for k in range(n)]
            nxt[W] = a[:1] + [_combine(a[min(k, n - 1)], _flat(min(y for _, y in a[k - 1])), min)
                              for k in range(1, min(K, n + 1))]
            stored += sum(map(len, nxt[W]))
            if stored > MAX_ORACLE_BREAKPOINTS:
                raise CapacityError(f"the solve stores over MAX_ORACLE_BREAKPOINTS = "
                                    f"{MAX_ORACLE_BREAKPOINTS} breakpoints")
        V = nxt
    return a


def _minimum(f: list) -> tuple[float, float]:
    """The least value of a piecewise-linear function and, of the actions
    attaining it, the one of least |x|."""
    value = min(y for _, y in f)
    if any(p[1] == q[1] == value and p[0] <= 0.0 <= q[0] for p, q in zip(f, f[1:])):
        return value, 0.0
    return value, min((x for x, y in f if y == value), key=abs)


def exact_minimax_budgets(cfg: OracleConfig) -> list[OracleReport]:
    """Exact reports of the 1-d game at every budget 1..K, from the one
    backward induction that budget K needs.  The first action is free."""
    T, Z = cfg.horizon_T, cfg.initial_bias_Z
    reports = []
    for K, root in enumerate(_roots(T, cfg.budget_K, Z, 1, range(-1, 2, 2)), start=1):
        value, witness = _minimum(root)
        reports.append(OracleReport(value, OracleConfig(T, K, Z), witness,
                                    *minimax_sandwich(T, K, Z=Z)))
    return reports


def exact_minimax_1d(cfg: OracleConfig) -> OracleReport:
    """Exact report of the game at budget K (see ``exact_minimax_budgets``)."""
    return exact_minimax_budgets(cfg)[-1]


def dense_adversary_value(T: int, K: int, denom: int = 5) -> float:
    """Value of the same game with the adversary on {j/denom : |j| <= denom},
    against which the endpoint restriction is checked."""
    OracleConfig(T, K)   # the oracle's rules on (T, K)
    return _minimum(_roots(T, K, 0.0, denom, range(-denom, denom + 1))[-1])[0]


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
