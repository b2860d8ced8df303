"""Acceptance checks: every headline constant and bound, re-derived at desk
scale against independent oracles, plus a quick module-invariant suite.

``run_checks`` creates one ``CheckResult`` per check and hands it to the
check, which records each quantity through one of three bounds:
``near(key, value, target, tol)``, ``at_least(key, value, floor, tol)`` and
``at_most(key, value, ceiling, tol)``.  A bound writes the measured value,
the expected value and the tolerance under the same key; repeated calls
under a key keep the worst value; a miss, NaN included, adds a failure that
names the key and the ``where=`` context.  A check passes when it recorded
no failure.  ``run_checks`` is shared by the ``labctl verify`` CLI and the
pytest acceptance module.  Check names are ``tag.short_name``; a
``--only TAG`` filter matches the tag prefix.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import fugal_engine as fe
from . import minimax_oracle as mo
from .adversaries import make_adversary
from .game_core import (INF, GameConfig, Trajectory, dual_norm, play_game,
                        worst_case_sign_regret)
from .players import make_player

SQRT2 = math.sqrt(2.0)

U2_ZERO = 0.5
U3_ZERO = SQRT2 - 1.0
U4_ZERO = 0.362975
Z0_REF = 0.283975
FIRST_BLOCK_K3 = 1.0 - SQRT2 / 2.0


@dataclass
class CheckResult:
    """One check's record: per key the worst measured value, what was
    expected of it (a target, or ``>= floor`` / ``<= ceiling``) and its
    tolerance, plus one failure string per missed bound."""

    check_name: str
    measured: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    tolerance: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    _badness: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def status(self) -> str:
        return "fail" if self.failures else "pass"

    def near(self, key: str, value, target, tol, where: str = "") -> None:
        """``|value - target| <= tol``; the worst value is the farthest."""
        error = abs(value - target)
        self._bound(key, value, error, target, tol, not error <= tol, where)

    def at_least(self, key: str, value, floor, tol, where: str = "") -> None:
        """``value >= floor - tol``; the worst value is the smallest."""
        self._bound(key, value, -value, f">= {floor}", tol, not value >= floor - tol, where)

    def at_most(self, key: str, value, ceiling, tol, where: str = "") -> None:
        """``value <= ceiling + tol``; the worst value is the largest."""
        self._bound(key, value, value, f"<= {ceiling}", tol, not value <= ceiling + tol, where)

    def _bound(self, key, value, badness, expected, tol, missed, where) -> None:
        worst = self._badness.get(key)
        # a NaN is worse than any number, and once recorded stays the worst
        if worst is None or (worst == worst and not badness <= worst):
            self._badness[key] = badness
            self.measured[key] = value
            self.expected[key] = expected
            self.tolerance[key] = tol
        if missed:
            self.failures.append(f"{key}{f' at {where}' if where else ''}: "
                                 f"{value} vs {expected} (tolerance {tol})")

    def to_report_dict(self) -> dict:
        return {key: getattr(self, key)
                for key in ("check_name", "status", "measured", "expected", "tolerance")}


def _run(player_id: str, adversary_id: str, cfg: GameConfig,
         adversary_params: dict | None = None) -> Trajectory:
    return play_game(make_player(player_id, cfg),
                     make_adversary(adversary_id, cfg, adversary_params), cfg)


# ----------------------------------------------------------------------
# criterion 1: exact fugal constants
# ----------------------------------------------------------------------

def check_constants_exact(res: CheckResult) -> None:
    tables = fe.solve_tables(4, 2000)
    for key, k, target in (("u2_zero", 1, U2_ZERO), ("u3_zero", 2, U3_ZERO),
                           ("u4_zero", 3, U4_ZERO)):
        res.near(key, tables[k].interp(0.0), target, 2e-3)
    u4_closed, z0 = fe.u4_exact()
    res.near("u4_closed_form", u4_closed, U4_ZERO, 1e-6)
    res.near("z0", z0, Z0_REF, 1e-6)


# ----------------------------------------------------------------------
# criterion 2: quadratic sandwich and monotonicity in k
# ----------------------------------------------------------------------

def check_quadratic_sandwich(res: CheckResult) -> None:
    K = 8
    tables = fe.solve_tables(K, 1000)
    grid = tables[0].grid
    # the overshoot cap (z^2+1)/2, on the interior nodes (u_k = 1 = cap at |z| = 1)
    cap = np.array([fe.overshoot_value(1.0, z) for z in grid[1:-1]])
    for k in range(1, K + 1):
        u = tables[k - 1].values
        # the floor and cap margins are taken past the 2e-3 allowance, so
        # each must be >= 0 exactly
        res.at_least("min_floor_margin",
                     float(np.min(u - (fe.quadratic_floor(k, grid) - 2e-3))), 0.0, 0.0,
                     where=f"k={k}")
        if k >= 2:
            res.at_least("min_cap_margin", float(np.min(cap + 2e-3 - u[1:-1])), 0.0, 0.0,
                         where=f"k={k}")
        if k < K:
            res.at_least("min_monotone_gap", float(np.min(u - tables[k].values)), 0.0, 1e-6,
                         where=f"u_{k} - u_{k + 1}")


# ----------------------------------------------------------------------
# criterion 3: closed-form operator image and interlacing
# ----------------------------------------------------------------------

def check_operator_closed_form(res: CheckResult) -> None:
    N = 2000
    grid = fe.make_grid(N)
    wit_tol = {"x": 1e-6, "value": 1e-5, "z_next": 1e-5}
    for i in (2, 3, 4):
        floor = fe.grid_of(lambda z: fe.quadratic_floor(i, z), N)
        image = fe.fugal_apply(floor)
        exact = fe.quadratic_floor_image(i, grid)
        res.at_most(f"max_image_error.i={i}", float(np.max(np.abs(image.values - exact))),
                    0.0, 5e-3)
        # pointwise witnesses inside |z| < sqrt(2/i): the crossing action, the
        # value and the inner minimizers, each against its closed form
        biases = (-0.4, 0.2, 0.5)
        witnesses = np.column_stack(fe.operator_witness(floor, biases)).tolist()
        for z, (x, value, zp, zm) in zip(biases, witnesses):
            z_plus, z_minus = fe.branch_cutoffs(i, x)
            for key, e in (("x", abs(x - fe.crossing_action(i, z))),
                           ("value", abs(value - fe.quadratic_floor_image(i, z))),
                           ("z_next", max(abs(zp - z_plus), abs(zm - z_minus)))):
                res.at_most(f"max_witness_error.{key}", e, 0.0, wit_tol[key],
                            where=f"i={i} z={z}")
    zs = np.linspace(-1.0, 1.0, 10_000)
    for i in range(2, 13):
        res.at_least("min_interlace_margin",
                     float(np.min(fe.quadratic_floor_image(i, zs) - fe.quadratic_floor(i + 1, zs))),
                     0.0, 1e-12, where=f"T a_{i} - a_{i + 1}")


# ----------------------------------------------------------------------
# criterion 4: high-dimensional lower bound
# ----------------------------------------------------------------------

def _forced_regret(res: CheckResult, adversary_id: str, cells, p: float, tol: float):
    """Play the constant, minibatch and three random-switch players (game
    seeds 0, 1, 2) against one adversary on every (n, T, K, bound) cell,
    recording regret - bound as ``min_regret_margin`` (>= 0 within tol).
    Returns per game its config, final loss sum ``cumulative_W`` and
    ``block_lengths()``.  No trajectory outlives its game."""
    games = []
    for n, T, K, bound in cells:
        for pid, seed in (("constant", 0), ("minibatch", 0),
                          *(("random_switch", s) for s in range(3))):
            traj = _run(pid, adversary_id, GameConfig(T, K, n, p, seed))
            res.at_least("min_regret_margin", traj.regret - bound, 0.0, tol,
                         where=f"{adversary_id} vs {pid} n={n} T={T} K={K}")
            games.append((traj.config, traj.cumulative_W, traj.block_lengths()))
    return games


def check_highd_lower(res: CheckResult) -> None:
    cells = [(n, T, K, T / math.sqrt(K))
             for n in (2, 3, 5) for T in (100, 1000) for K in (1, 4, 16)]
    for config, W, blocks in _forced_regret(res, "orthogonal", cells, 2.0, 1e-6):
        # ||W_T||^2 = sum M_i^2: each block's loss is orthogonal to the sum before it
        M = np.array(blocks, dtype=float)
        rhs = float(np.sum(M * M))
        res.at_most("max_identity_rel_err", abs(float(np.dot(W, W)) - rhs) / max(rhs, 1.0),
                    0.0, 1e-9, where=str(config))


# ----------------------------------------------------------------------
# criterion 5: one-dimensional lower bound
# ----------------------------------------------------------------------

def check_onedim_lower(res: CheckResult) -> None:
    cells = [(1, T, K, T / (2.0 * math.sqrt(K)))
             for T in (100, 1000, 10_000) for K in (1, 2, 4, 16, 100)]
    _forced_regret(res, "stopping", cells, 2.0, 1e-9)


# ----------------------------------------------------------------------
# criterion 6: upper bounds (mini-batch OGD constant; half-split exactness)
# ----------------------------------------------------------------------

def check_upper_bounds(res: CheckResult) -> None:
    # mini-batch against every adversary in its valid pairing:
    # (n, p, adversary, params, scale of the bound)
    cells = [(1, 2.0, aid, aparams, 1.0)
             for aid, aparams in (("stopping", {}), ("sign", {}),
                                  ("constant", {"w": 1.0}), ("zero", {}))]
    cells += [(n, 2.0, aid, aparams, 1.0) for n in (2, 3, 5)
              for aid, aparams in (("orthogonal", {}), ("zero", {}),
                                   ("constant", {"w": [1.0] + [0.0] * (n - 1)}))]
    # Linf box: coordinates decouple, per-coordinate OGD bound scales by n
    cells += [(n, INF, "product", {}, float(n)) for n in (2, 3)]
    for T in (100, 1000):
        for K in (1, 4, 16, 100):
            for n, p, aid, aparams, scale in cells:
                traj = _run("minibatch", aid, GameConfig(T, K, n, p), aparams)
                bound = scale * 2.0 * math.ceil(T / K) * math.sqrt(K)
                # regret <= bound + 1e-9, written on the ratio
                res.at_most("max_minibatch_regret_ratio", traj.regret / bound, 1.0, 1e-9 / bound,
                            where=f"minibatch vs {aid} T={T} K={K} n={n}")

    # half-split: the worst +-1 sequence through the engine's round rule,
    # exact ceil(T/2) cap.  Mini-batching at K = 2 with a unit step is the
    # half split: 0 for ceil(T/2) rounds, then -W/ceil(T/2), which is in
    # the ball since |W| <= ceil(T/2)
    for T in range(2, 17):
        cfg = GameConfig(horizon_T=T, budget_K=2, dimension_n=1)
        worst, _ = worst_case_sign_regret(
            lambda: make_player("minibatch", cfg, {"step_size": 1.0}), cfg)
        res.at_most("halfsplit_worst_excess_over_cap", worst - math.ceil(T / 2), 0.0, 1e-10,
                    where=f"T={T}")


# ----------------------------------------------------------------------
# criterion 7: oracle sandwich, bias, one block and the +-1 adversary
# ----------------------------------------------------------------------

def check_oracle_sandwich(res: CheckResult) -> None:
    # one solve at budget T holds the game at every smaller budget
    sweep = {(T, r.config.budget_K): r for T in range(1, 11)
             for r in mo.exact_minimax_budgets(mo.OracleConfig(T, T))}
    for r in sweep.values():
        res.at_least("min_lower_margin", r.value - r.bound_lower, 0.0, 1e-9, where=str(r.config))
        res.at_least("min_upper_margin", r.bound_upper - r.value, 0.0, 1e-9, where=str(r.config))
    for T, K, target in ((4, 2, 2.0), (2, 2, 1.0)):
        res.near(f"points.T{T}_K{K}", sweep[T, K].value, target, 1e-9)
    reports = list(sweep.values())
    for T in range(1, 7):
        for Z in (T, -T, 2 * T, -2 * T, 0.0, 0.5, -0.5):
            by_budget = mo.exact_minimax_budgets(mo.OracleConfig(T, T, float(Z)))
            for K in sorted({1, (T + 1) // 2, T}):
                rep = by_budget[K - 1]
                reports.append(rep)
                where = f"T={T} K={K} Z={Z}"
                # a bias the horizon cannot undo pins the value to |Z|
                if abs(Z) >= T:
                    res.at_most("max_bias_pin_error", abs(rep.value - abs(Z)), 0.0, 1e-9,
                                where=where)
                res.at_least("min_margin_over_bias", rep.value - abs(Z), 0.0, 1e-12, where=where)
    # at K = 1 the oracle plays the one-block game, of value r_1(T, Z)
    for r in reports:
        if r.config.budget_K == 1:
            T, Z = r.config.horizon_T, r.config.initial_bias_Z
            res.at_most("max_one_block_error", abs(r.value - fe.one_block_value(T, Z)),
                        0.0, 1e-9, where=f"T={T} Z={Z}")
    # the adversary loses nothing by playing only +-1: a finer adversary grid
    # gives the same value
    for T in (1, 2, 3):
        for K in range(1, T + 1):
            res.at_most("max_dense_adversary_gap",
                        abs(mo.dense_adversary_value(T, K) - sweep[T, K].value), 0.0, 1e-12,
                        where=f"T={T} K={K}")


# ----------------------------------------------------------------------
# criterion 8: unequal blocks for K=3
# ----------------------------------------------------------------------

def check_unequal_blocks(res: CheckResult) -> None:
    _, policy = fe.u_k_solve(3, 2000)
    for name, sign in (("plus", +1), ("minus", -1)):
        res.near(f"first_block_fraction_{name}", policy.m_fraction((), sign),
                 FIRST_BLOCK_K3, 1e-3)
    T = 10_000
    cfg = GameConfig(horizon_T=T, budget_K=3, dimension_n=1)
    traj = _run("fugal", "constant", cfg, {"w": 1.0})   # plays the policy above, N = 2000
    moving_rounds = np.flatnonzero(traj.rounds["is_moving"]) + 1
    first_switch = int(moving_rounds[1]) if len(moving_rounds) > 1 else -1
    res.near("first_switch_round", first_switch, math.ceil(FIRST_BLOCK_K3 * T), 2)


# ----------------------------------------------------------------------
# criterion 9: closed-form R(K)
# ----------------------------------------------------------------------

def check_unconstrained_closed_form(res: CheckResult) -> None:
    R = mo.unconstrained_regret_closed_form
    for K in range(1, 9):
        res.near(f"oracle_minus_closed_form.K={K}",
                 mo.exact_minimax_1d(mo.OracleConfig(K, K)).value - R(K), 0.0, 1e-9)
    # R(K) = R(K + 1) for odd K
    for K in range(1, 16, 2):
        res.at_most("max_parity_gap", abs(R(K) - R(K + 1)), 0.0, 0.0, where=f"K={K}")
    res.near("r3_over_sqrt3", R(3) / math.sqrt(3.0), math.sqrt(3.0) / 2.0, 1e-12)


# ----------------------------------------------------------------------
# criterion 10: Linf decomposition
# ----------------------------------------------------------------------

def check_linf_decomposition(res: CheckResult) -> None:
    T = 1000
    cells = [(n, T, K, n * T / (2.0 * math.sqrt(K))) for n in (2, 3) for K in (4, 16)]
    _forced_regret(res, "product", cells, INF, 1e-9)
    bad_T = [T_ for T_ in range(1, 1001)
             if not mo.tk_inequality_check(T_, np.arange(1, T_ + 1))]
    res.near("tk_inequality_all", not bad_T, True, 0, where=f"ceil(T/K) bound fails at T={bad_T}")


# ----------------------------------------------------------------------
# module invariants (cheap cross-cutting properties)
# ----------------------------------------------------------------------

def check_core_invariants(res: CheckResult) -> None:
    rng = random.Random(7)

    # dual norm agrees with its defining sup at the analytic maximizer
    for _ in range(50):
        w = np.array([rng.gauss(0.0, 1.0) for _ in range(rng.randint(1, 5))])
        ref2 = float(np.dot(w, w / np.linalg.norm(w))) if np.linalg.norm(w) > 0 else 0.0
        res.at_most("max_dual_norm_error", abs(dual_norm(w, 2.0) - ref2), 0.0, 1e-10, where="L2")
        res.at_most("max_dual_norm_error", abs(dual_norm(w, INF) - float(np.dot(w, np.sign(w)))),
                    0.0, 1e-10, where="Linf")

    # stored regret matches a recompute in another summation order; the
    # flags and blocks agree with the switch count; zero-loss padding
    # leaves the regret unchanged
    for seed in range(10):
        T, K, n = 30, 4, 2
        traj = _run("random_switch", "orthogonal", GameConfig(T, K, n, seed=seed))
        X, L = traj.rounds["action_x"], traj.rounds["loss_w"]
        where = f"seed {seed}"
        recomputed = float(np.sum(L * X)) + dual_norm(L.sum(axis=0), 2.0)
        res.at_most("max_regret_recompute_error", abs(recomputed - traj.regret), 0.0, 1e-12,
                    where=where)
        moving = int(np.count_nonzero(traj.rounds["is_moving"]))
        blocks = traj.block_lengths()
        res.at_most("max_switch_count_mismatch",
                    max(abs(traj.switch_count - (moving - 1)), abs(len(blocks) - moving),
                        abs(sum(blocks) - T)), 0, 0, where=where)
        padded_cfg = GameConfig(horizon_T=T + 5, budget_K=K, dimension_n=n, seed=seed)
        traj2 = Trajectory.from_columns(padded_cfg, np.vstack([X, np.repeat(X[-1:], 5, 0)]),
                                        np.vstack([L, np.zeros((5, n))]))
        res.at_most("max_padding_regret_change", abs(traj2.regret - traj.regret), 0.0, 1e-12,
                    where=where)

    # fugal policy: fractions sum to one on every sign path, actions in the ball
    tables, policy = fe.u_k_solve(3, 500)
    for path in ((1, 1, 1), (1, -1, 1), (-1, 1, -1), (-1, -1, -1)):
        res.at_most("max_path_fraction_sum_error", abs(policy.path_fraction_sum(path) - 1.0),
                    0.0, 1e-6, where=f"path {path}")
    res.at_most("max_policy_action_abs", float(np.max(np.abs(policy.nodes[:, 0]))),
                1.0, 1e-12)

    # solved tables are even in z
    for k, t in enumerate(fe.solve_tables(4, 500), start=1):
        res.at_most("max_table_asymmetry", float(np.max(np.abs(t.values - t.values[::-1]))),
                    0.0, 1e-6, where=f"u_{k}")

    # operator preserves pointwise order: f <= g implies T f <= T g
    N = 200
    grid = fe.make_grid(N)
    for seed in range(5):
        r = random.Random(seed)
        bump = np.array([r.random() for _ in range(N + 1)]) * (1.0 - np.abs(grid))
        g_vals = np.abs(grid) + bump
        f_vals = np.abs(grid) + np.array([r.random() for _ in range(N + 1)]) * bump
        tf = fe.fugal_apply(fe.GridFunction(N, f_vals))
        tg = fe.fugal_apply(fe.GridFunction(N, g_vals))
        res.at_most("max_monotonicity_violation", float(np.max(tf.values - tg.values)),
                    0.0, 1e-9, where=f"seed {seed}")


# ----------------------------------------------------------------------
# registry / driver
# ----------------------------------------------------------------------

CHECKS = (
    ("fugal.constants_exact", check_constants_exact, 60.0),
    ("fugal.quadratic_sandwich", check_quadratic_sandwich, 300.0),
    ("fugal.operator_closed_form", check_operator_closed_form, None),
    ("bounds.highd_lower", check_highd_lower, None),
    ("bounds.onedim_lower", check_onedim_lower, None),
    ("bounds.upper_minibatch_halfsplit", check_upper_bounds, None),
    ("oracle.sandwich", check_oracle_sandwich, 600.0),
    ("fugal.unequal_blocks", check_unequal_blocks, None),
    ("oracle.unconstrained_closed_form", check_unconstrained_closed_form, None),
    ("bounds.linf_decomposition", check_linf_decomposition, None),
    ("core.invariants", check_core_invariants, None),
)


def _execute(name: str, fn, budget: float | None) -> CheckResult:
    res = CheckResult(name)
    start = time.perf_counter()
    fn(res)
    res.elapsed_s = time.perf_counter() - start
    if budget is not None:
        res.tolerance["runtime_s"] = budget
        if not res.elapsed_s <= budget:
            res.failures.append(f"runtime {res.elapsed_s:.1f}s exceeds budget {budget}s")
    return res


def run_checks(only: str | None = None) -> list[CheckResult]:
    results = []
    for name, fn, budget in CHECKS:
        if only is not None and not (name == only or name.split(".", 1)[0] == only):
            continue
        results.append(_execute(name, fn, budget))
    return results
