"""Acceptance checks: every headline constant and bound, re-derived at desk
scale against independent oracles, plus a quick module-invariant suite.

Each check returns measured values, expected values, tolerances, and a list
of failure strings (empty = pass).  ``run_checks`` drives them and is shared
by the ``labctl verify`` CLI and the pytest acceptance module.  Check names
are ``tag.short_name``; a ``--only TAG`` filter matches the tag prefix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import fugal_engine as fe
from . import minimax_oracle as mo
from .adversaries import ConstantAdversary, make_adversary
from .game_core import (INF, GameConfig, Trajectory, dual_norm, play_game,
                        worst_case_sign_regret)
from .players import HalfSplitPlayer, FugalPlayer, make_player

SQRT2 = math.sqrt(2.0)

U2_ZERO = 0.5
U3_ZERO = SQRT2 - 1.0
U4_ZERO = 0.362975
Z0_REF = 0.283975
FIRST_BLOCK_K3 = 1.0 - SQRT2 / 2.0


@dataclass
class CheckResult:
    check_name: str
    status: str
    measured: dict
    expected: dict
    tolerance: dict
    elapsed_s: float
    failures: list[str] = field(default_factory=list)

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

def check_constants_exact():
    N = 2000
    tables = fe.solve_tables(4, N)
    u2, u3, u4 = (tables[k].interp(0.0) for k in (1, 2, 3))
    u4_closed, z0 = fe.u4_exact()
    measured = {"u2_zero": u2, "u3_zero": u3, "u4_zero": u4,
                "u4_closed_form": u4_closed, "z0": z0}
    expected = {"u2_zero": U2_ZERO, "u3_zero": U3_ZERO, "u4_zero": U4_ZERO,
                "u4_closed_form": U4_ZERO, "z0": Z0_REF}
    tol = {"u2_zero": 2e-3, "u3_zero": 2e-3, "u4_zero": 2e-3,
           "u4_closed_form": 1e-6, "z0": 1e-6}
    failures = []
    for key in ("u2_zero", "u3_zero", "u4_zero", "u4_closed_form", "z0"):
        if abs(measured[key] - expected[key]) > tol[key]:
            failures.append(f"{key}: measured {measured[key]!r} vs {expected[key]!r}")
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# criterion 2: quadratic sandwich and monotonicity in k
# ----------------------------------------------------------------------

def check_quadratic_sandwich():
    N, K = 1000, 8
    tables = fe.solve_tables(K, N)
    grid = tables[0].grid
    # the overshoot cap (z^2+1)/2, on the interior nodes (u_k = 1 = cap at |z| = 1)
    cap = np.array([fe.overshoot_value(1.0, z) for z in grid[1:-1]])
    worst_floor = math.inf
    worst_cap = math.inf
    worst_mono = math.inf
    failures = []
    for k in range(1, K + 1):
        u = tables[k - 1].values
        floor = fe.quadratic_floor(k, grid)
        worst_floor = min(worst_floor, float(np.min(u - (floor - 2e-3))))
        if np.any(u < floor - 2e-3):
            failures.append(f"k={k}: u_k dips below quadratic floor by more than 2e-3")
        if k >= 2:
            worst_cap = min(worst_cap, float(np.min(cap + 2e-3 - u[1:-1])))
            if np.any(u[1:-1] > cap + 2e-3):
                failures.append(f"k={k}: u_k exceeds (z^2+1)/2 cap by more than 2e-3")
        if k < K:
            gap = tables[k - 1].values - tables[k].values
            worst_mono = min(worst_mono, float(np.min(gap)))
            if np.any(gap < -1e-6):
                failures.append(f"k={k}: u_(k+1) > u_k + 1e-6 somewhere")
    measured = {"min_floor_margin": worst_floor, "min_cap_margin": worst_cap,
                "min_monotone_gap": worst_mono}
    expected = {"min_floor_margin": ">= 0", "min_cap_margin": ">= 0",
                "min_monotone_gap": ">= -1e-6"}
    tol = {"floor": 2e-3, "cap": 2e-3, "monotone": 1e-6}
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# criterion 3: closed-form operator image and interlacing
# ----------------------------------------------------------------------

def check_operator_closed_form():
    N = 2000
    grid = fe.make_grid(N)
    failures = []
    max_err = {}
    wit_tol = {"x": 1e-6, "value": 1e-5, "z_next": 1e-5}
    wit_err = dict.fromkeys(wit_tol, 0.0)
    for i in (2, 3, 4):
        floor = fe.grid_of(lambda z: fe.quadratic_floor(i, z), N)
        image = fe.fugal_apply(floor)
        exact = fe.quadratic_floor_image(i, grid)
        err = float(np.max(np.abs(image.values - exact)))
        max_err[f"i={i}"] = err
        if err > 5e-3:
            failures.append(f"operator image vs closed form, i={i}: max err {err}")
        # pointwise witnesses inside |z| < sqrt(2/i): the crossing action, the
        # value and the inner minimizers, each against its closed form
        for z in (-0.4, 0.2, 0.5):
            wit = fe.operator_witness(floor, z)
            z_plus, z_minus = fe.branch_cutoffs(i, wit.x)
            for key, e in (("x", abs(wit.x - fe.crossing_action(i, z))),
                           ("value", abs(wit.value - fe.quadratic_floor_image(i, z))),
                           ("z_next", max(abs(wit.z_next[1] - z_plus),
                                          abs(wit.z_next[-1] - z_minus)))):
                wit_err[key] = max(wit_err[key], e)
                if e > wit_tol[key]:
                    failures.append(f"witness {key} vs closed form, i={i} z={z}: err {e}")
    zs = np.linspace(-1.0, 1.0, 10_000)
    min_margin = min(float(np.min(fe.quadratic_floor_image(i, zs) - fe.quadratic_floor(i + 1, zs)))
                     for i in range(2, 13))
    if min_margin < -1e-12:
        failures.append(f"interlacing violated: min(T a_i - a_(i+1)) = {min_margin}")
    measured = {"max_image_error": max_err, "min_interlace_margin": min_margin,
                "max_witness_error": wit_err}
    expected = {"max_image_error": "<= 5e-3 each", "min_interlace_margin": ">= -1e-12",
                "max_witness_error": "<= witness tolerance each"}
    tol = {"image": 5e-3, "interlace": 1e-12, "witness": wit_tol}
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# criterion 4: high-dimensional lower bound
# ----------------------------------------------------------------------

def _forced_regret(adversary_id: str, cells, p: float, tol: float):
    """Play the constant, minibatch and three random-switch players (game
    seeds 0, 1, 2) against one adversary on every (n, T, K, bound) cell.
    Returns the least regret - bound, the trajectories, and a failure for
    each regret below bound - tol."""
    min_margin = math.inf
    trajectories, failures = [], []
    for n, T, K, bound in cells:
        for pid, seed in (("constant", 0), ("minibatch", 0),
                          *(("random_switch", s) for s in range(3))):
            traj = _run(pid, adversary_id, GameConfig(T, K, n, p, seed))
            min_margin = min(min_margin, traj.regret - bound)
            if traj.regret < bound - tol:
                failures.append(f"{adversary_id} vs {pid}: regret {traj.regret} < "
                                f"{bound} at n={n} T={T} K={K}")
            trajectories.append(traj)
    return min_margin, trajectories, failures


def check_highd_lower():
    cells = [(n, T, K, T / math.sqrt(K))
             for n in (2, 3, 5) for T in (100, 1000) for K in (1, 4, 16)]
    min_margin, trajectories, failures = _forced_regret("orthogonal", cells, 2.0, 1e-6)
    max_identity_rel = 0.0
    for traj in trajectories:
        M = np.array(traj.block_lengths(), dtype=float)
        lhs = float(np.dot(traj.cumulative_W, traj.cumulative_W))
        rhs = float(np.sum(M * M))
        rel = abs(lhs - rhs) / max(rhs, 1.0)
        max_identity_rel = max(max_identity_rel, rel)
        if rel > 1e-9:
            failures.append(f"||W_T||^2 vs sum M_i^2 mismatch rel={rel} at {traj.config}")
    measured = {"min_regret_margin": min_margin, "max_identity_rel_err": max_identity_rel}
    expected = {"min_regret_margin": ">= -1e-6", "max_identity_rel_err": "<= 1e-9"}
    tol = {"regret": 1e-6, "identity_rel": 1e-9}
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# criterion 5: one-dimensional lower bound
# ----------------------------------------------------------------------

def check_onedim_lower():
    cells = [(1, T, K, T / (2.0 * math.sqrt(K)))
             for T in (100, 1000, 10_000) for K in (1, 2, 4, 16, 100)]
    min_margin, _, failures = _forced_regret("stopping", cells, 2.0, 1e-9)
    measured = {"min_regret_margin": min_margin}
    expected = {"min_regret_margin": ">= 0 (float allowance 1e-9)"}
    tol = {"regret": 1e-9}
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# criterion 6: upper bounds (mini-batch OGD constant; half-split exactness)
# ----------------------------------------------------------------------

def check_upper_bounds():
    failures = []
    max_ratio = 0.0
    # mini-batch against every adversary in its valid pairing
    cells = []
    for T in (100, 1000):
        for K in (1, 4, 16, 100):
            if K > T:
                continue
            for aid, aparams in (("stopping", {}), ("sign", {}),
                                 ("constant", {"w": 1.0}), ("zero", {})):
                cells.append((1, 2.0, aid, aparams, 1.0))
            for n in (2, 3, 5):
                for aid, aparams in (("orthogonal", {}), ("zero", {}),
                                     ("constant", {"w": [1.0] + [0.0] * (n - 1)})):
                    cells.append((n, 2.0, aid, aparams, 1.0))
            for n in (2, 3):
                # Linf box: coordinates decouple, per-coordinate OGD bound scales by n
                cells.append((n, INF, "product", {}, float(n)))
            for n, p, aid, aparams, scale in cells:
                traj = _run("minibatch", aid, GameConfig(T, K, n, p), aparams)
                bound = scale * 2.0 * math.ceil(T / K) * math.sqrt(K)
                max_ratio = max(max_ratio, traj.regret / bound)
                if traj.regret > bound + 1e-9:
                    failures.append(
                        f"minibatch vs {aid}: regret {traj.regret} > {bound} "
                        f"at T={T} K={K} n={n}")
            cells.clear()

    # half-split: the worst +-1 sequence through the engine's round rule,
    # exact ceil(T/2) cap
    worst_excess = -math.inf
    for T in range(2, 17):
        cfg = GameConfig(horizon_T=T, budget_K=2, dimension_n=1)
        worst, _ = worst_case_sign_regret(lambda: HalfSplitPlayer(cfg), cfg)
        cap = math.ceil(T / 2)
        worst_excess = max(worst_excess, worst - cap)
        if worst > cap + 1e-10:
            failures.append(f"half-split exhaustive: max regret {worst} "
                            f"> ceil(T/2)={cap} at T={T}")
    measured = {"max_minibatch_regret_ratio": max_ratio,
                "halfsplit_worst_excess_over_cap": worst_excess}
    expected = {"max_minibatch_regret_ratio": "<= 1",
                "halfsplit_worst_excess_over_cap": "<= 0 (roundoff 1e-10)"}
    tol = {"minibatch": 1e-9, "halfsplit": 1e-10}
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# criterion 7: oracle sandwich, bias, one block and the +-1 adversary
# ----------------------------------------------------------------------

def check_oracle_sandwich():
    failures = []
    min_lower_margin = math.inf
    min_upper_margin = math.inf
    reports = []

    def solve(T, K, Z=0.0):
        reports.append(mo.exact_minimax_1d(mo.OracleConfig(T, K, 41, float(Z))))
        return reports[-1]

    for T in range(1, 11):
        for K in range(1, T + 1):
            rep = solve(T, K)
            slack = rep.grid_slack
            min_lower_margin = min(min_lower_margin, rep.value - (rep.bound_lower - slack))
            min_upper_margin = min(min_upper_margin, (rep.bound_upper + slack) - rep.value)
            if not rep.bound_lower - slack <= rep.value <= rep.bound_upper + slack:
                failures.append(f"sandwich broken at T={T} K={K}: value={rep.value}, "
                                f"[{rep.bound_lower}, {rep.bound_upper}], slack={slack}")
    points = {}
    for (T, K, target) in ((4, 2, 2.0), (2, 2, 1.0)):
        rep = solve(T, K)
        points[f"T{T}_K{K}"] = rep.value
        if abs(rep.value - target) > rep.grid_slack:
            failures.append(f"point check T={T} K={K}: value {rep.value} vs {target}")
    for T in range(1, 7):
        for K in sorted({1, (T + 1) // 2, T}):
            for Z in (T, -T, 2 * T, -2 * T):
                rep = solve(T, K, Z)
                if abs(rep.value - abs(Z)) > 1e-9:
                    failures.append(f"bias pin-down T={T} K={K} Z={Z}: {rep.value}")
            for Z in (0.0, 0.5, -0.5):
                if solve(T, K, Z).value < abs(Z) - 1e-12:
                    failures.append(f"value below |Z| at T={T} K={K} Z={Z}")
    # at K = 1 the oracle plays the one-block game: its player grid can only
    # raise the value r_1(T, Z), by at most the grid slack
    one_block = [(r.value - fe.one_block_value(r.config.horizon_T, r.config.initial_bias_Z),
                  r.grid_slack, r.config) for r in reports if r.config.budget_K == 1]
    failures += [f"oracle {gap} above the one-block value at {c}"
                 for gap, slack, c in one_block if not -1e-12 <= gap <= slack]
    # the adversary loses nothing by playing only +-1: a finer adversary grid
    # gives the same value
    dense_gap = max(abs(mo.dense_adversary_value(T, K, x_grid=21)
                        - mo.exact_minimax_1d(mo.OracleConfig(T, K, x_grid=21)).value)
                    for T in (1, 2, 3) for K in range(1, T + 1))
    if dense_gap > 1e-12:
        failures.append(f"a dense adversary grid moves the value by {dense_gap}")
    measured = {"min_lower_margin": min_lower_margin,
                "min_upper_margin": min_upper_margin, "points": points,
                "min_one_block_lower_margin": min(gap for gap, _, _ in one_block),
                "min_one_block_upper_margin": min(slack - gap for gap, slack, _ in one_block),
                "max_dense_adversary_gap": dense_gap}
    expected = {"points": {"T4_K2": 2.0, "T2_K2": 1.0}, "margins": ">= 0",
                "max_dense_adversary_gap": "<= 1e-12"}
    tol = {"sandwich": "grid slack 2T/(x_grid-1)", "bias": 1e-9,
           "one_block": "[-1e-12, grid slack]", "dense_adversary": 1e-12}
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# criterion 8: unequal blocks for K=3
# ----------------------------------------------------------------------

def check_unequal_blocks():
    failures = []
    _, policy = fe.u_k_solve(3, 2000)
    frac_plus = policy.m_fraction((), +1)
    frac_minus = policy.m_fraction((), -1)
    for name, frac in (("plus", frac_plus), ("minus", frac_minus)):
        if abs(frac - FIRST_BLOCK_K3) > 1e-3:
            failures.append(f"first-block fraction ({name} sign) {frac} "
                            f"vs {FIRST_BLOCK_K3}")
    T = 10_000
    cfg = GameConfig(horizon_T=T, budget_K=3, dimension_n=1)
    traj = play_game(FugalPlayer(cfg, policy),
                     ConstantAdversary(cfg, w=1.0), cfg)
    moving_rounds = np.flatnonzero(traj.rounds["is_moving"]) + 1
    first_switch = int(moving_rounds[1]) if len(moving_rounds) > 1 else -1
    target = math.ceil(FIRST_BLOCK_K3 * T)
    if abs(first_switch - target) > 2:
        failures.append(f"first switch at round {first_switch}, expected "
                        f"within 2 of {target}")
    measured = {"first_block_fraction_plus": frac_plus,
                "first_block_fraction_minus": frac_minus,
                "first_switch_round": first_switch}
    expected = {"first_block_fraction": FIRST_BLOCK_K3, "first_switch_round": target}
    tol = {"fraction": 1e-3, "switch_round": 2}
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# criterion 9: closed-form R(K)
# ----------------------------------------------------------------------

def check_unconstrained_closed_form():
    failures = []
    errs = {}
    for K in range(1, 9):
        rep = mo.exact_minimax_1d(mo.OracleConfig(K, K, x_grid=41))
        target = mo.unconstrained_regret_closed_form(K)
        errs[f"K={K}"] = rep.value - target
        if abs(rep.value - target) > rep.grid_slack:
            failures.append(f"unconstrained oracle vs R(K) at K={K}: "
                            f"{rep.value} vs {target}")
    for K in range(1, 16, 2):
        a = mo.unconstrained_regret_closed_form(K)
        b = mo.unconstrained_regret_closed_form(K + 1)
        if a != b:
            failures.append(f"R({K}) != R({K + 1}): {a} vs {b}")
    r3 = mo.unconstrained_regret_closed_form(3) / math.sqrt(3.0)
    if abs(r3 - math.sqrt(3.0) / 2.0) > 1e-12:
        failures.append(f"R(3)/sqrt(3) = {r3} vs sqrt(3)/2")
    measured = {"oracle_minus_closed_form": errs, "r3_over_sqrt3": r3}
    expected = {"oracle_minus_closed_form": "within grid slack",
                "r3_over_sqrt3": math.sqrt(3.0) / 2.0}
    tol = {"oracle": "grid slack", "parity": 0.0, "r3": 1e-12}
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# criterion 10: Linf decomposition
# ----------------------------------------------------------------------

def check_linf_decomposition():
    T = 1000
    cells = [(n, T, K, n * T / (2.0 * math.sqrt(K))) for n in (2, 3) for K in (4, 16)]
    min_margin, _, failures = _forced_regret("product", cells, INF, 1e-9)
    bad_T = [T_ for T_ in range(1, 1001)
             if not mo.tk_inequality_check(T_, np.arange(1, T_ + 1))]
    failures += [f"ceil(T/K) bound fails at T={T_}" for T_ in bad_T]
    measured = {"min_regret_margin": min_margin, "tk_inequality_all": not bad_T}
    expected = {"min_regret_margin": ">= 0", "tk_inequality_all": True}
    tol = {"regret": 1e-9}
    return measured, expected, tol, failures


# ----------------------------------------------------------------------
# module invariants (cheap cross-cutting properties)
# ----------------------------------------------------------------------

def check_core_invariants():
    failures = []
    rng = np.random.default_rng(7)

    # dual norm agrees with its defining sup at the analytic maximizer
    for _ in range(50):
        w = rng.normal(size=rng.integers(1, 6))
        d2 = dual_norm(w, 2.0)
        ref2 = float(np.dot(w, w / np.linalg.norm(w))) if np.linalg.norm(w) > 0 else 0.0
        if abs(d2 - ref2) > 1e-10:
            failures.append("L2 dual norm disagrees with sup oracle")
        di = dual_norm(w, INF)
        refi = float(np.dot(w, np.sign(w)))
        if abs(di - refi) > 1e-10:
            failures.append("Linf dual norm disagrees with sup oracle")

    # stored regret matches a recompute in another summation order; the
    # flags and blocks agree with the switch count; zero-loss padding
    # leaves the regret unchanged
    for seed in range(10):
        T, K, n = 30, 4, 2
        traj = _run("random_switch", "orthogonal", GameConfig(T, K, n, seed=seed))
        X, L = traj.rounds["action_x"], traj.rounds["loss_w"]
        recomputed = float(np.sum(L * X)) + dual_norm(L.sum(axis=0), 2.0)
        if abs(recomputed - traj.regret) > 1e-12:
            failures.append("stored regret != recomputed regret")
        moving = int(np.count_nonzero(traj.rounds["is_moving"]))
        blocks = traj.block_lengths()
        if traj.switch_count != moving - 1 or len(blocks) != moving or sum(blocks) != T:
            failures.append("switch count, moving rounds and blocks disagree")
        padded_cfg = GameConfig(horizon_T=T + 5, budget_K=K, dimension_n=n, seed=seed)
        traj2 = Trajectory.from_columns(padded_cfg, np.vstack([X, np.repeat(X[-1:], 5, 0)]),
                                        np.vstack([L, np.zeros((5, n))]))
        if abs(traj2.regret - traj.regret) > 1e-12:
            failures.append("zero-loss padding changed the regret")

    # fugal policy: fractions sum to one on every sign path, actions in the ball
    tables, policy = fe.u_k_solve(3, 500)
    for path in ((1, 1, 1), (1, -1, 1), (-1, 1, -1), (-1, -1, -1)):
        s = policy.path_fraction_sum(path)
        if abs(s - 1.0) > 1e-6:
            failures.append(f"policy path {path}: fractions sum to {s}")
    if any(abs(node.x) > 1.0 + 1e-12 for node in policy.nodes.values()):
        failures.append("policy action outside [-1, 1]")

    # solved tables are even in z
    grid_tables = fe.solve_tables(4, 500)
    for t in grid_tables:
        asym = float(np.max(np.abs(t.values - t.values[::-1])))
        if asym > 1e-6:
            failures.append(f"u_{t.k_index} asymmetric by {asym}")

    # operator preserves pointwise order: f <= g implies T f <= T g
    N = 200
    grid = fe.make_grid(N)
    for seed in range(5):
        r = np.random.default_rng(seed)
        bump = r.uniform(0.0, 1.0, N + 1) * (1.0 - np.abs(grid))
        g_vals = np.abs(grid) + bump
        f_vals = np.abs(grid) + r.uniform(0.0, 1.0, N + 1) * bump
        tf = fe.fugal_apply(fe.GridFunction(N, f_vals))
        tg = fe.fugal_apply(fe.GridFunction(N, g_vals))
        if np.any(tf.values > tg.values + 1e-9):
            failures.append(f"operator monotonicity violated (seed {seed})")

    measured = {"n_failures": len(failures)}
    expected = {"n_failures": 0}
    tol = {}
    return measured, expected, tol, failures


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
    start = time.perf_counter()
    measured, expected, tol, failures = fn()
    elapsed = time.perf_counter() - start
    if budget is not None:
        tol = {**tol, "runtime_s": budget}
        if elapsed > budget:
            failures = list(failures) + [f"runtime {elapsed:.1f}s exceeds budget {budget}s"]
    status = "pass" if not failures else "fail"
    return CheckResult(check_name=name, status=status, measured=measured,
                       expected=expected, tolerance=tol, elapsed_s=elapsed,
                       failures=list(failures))


def run_checks(only: str | None = None) -> list[CheckResult]:
    results = []
    for name, fn, budget in CHECKS:
        if only is not None and not (name == only or name.split(".", 1)[0] == only):
            continue
        results.append(_execute(name, fn, budget))
    return results
