"""Output checkers for the benchmark workloads.

Every expected value here is computed from a closed form or a property the
method must have, written out in this file; nothing is read from switchlab
and nothing is compared against a stored copy of an earlier output.  Each
checker returns a list of failure strings (empty means the output is
correct); the sweep and verify checkers also return how many operations
the program itself reported as failed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

SQRT2 = math.sqrt(2.0)

#: tolerances stated by the acceptance suite (switchlab/verify.py)
FLOOR_TOL = 2e-3        # u_k may dip below a_k, or exceed the cap, by this much
MONOTONE_TOL = 1e-6     # u_{k+1} <= u_k + this
SYMMETRY_TOL = 1e-6     # |u_k(z) - u_k(-z)|, and mirror error of the policy
HEADLINE_TOL = 2e-3     # u_2(0), u_3(0), u_4(0) on a solved grid
Z0_TOL = 1e-6
SWITCH_ROUND_TOL = 2
R3_TOL = 1e-12
PATH_SUM_TOL = 1e-6     # fractions along one sign path sum to 1
BOX_TOL = 1e-12         # actions in [-1, 1], fractions in [0, 1]
LOWER_TOL = 1e-6        # regret may sit this far under a lower bound (roundoff)
UPPER_TOL = 1e-9

VERIFY_CHECKS = (
    "fugal.constants_exact",
    "fugal.quadratic_sandwich",
    "fugal.operator_closed_form",
    "bounds.highd_lower",
    "bounds.onedim_lower",
    "bounds.upper_minibatch_halfsplit",
    "oracle.sandwich",
    "fugal.unequal_blocks",
    "oracle.unconstrained_closed_form",
    "bounds.linf_decomposition",
    "core.invariants",
)

SIMULATE_COLUMNS = ("T", "K", "n", "player_id", "adversary_id", "seed", "regret",
                    "switch_count", "normalized", "bound_lower", "bound_upper",
                    "within_bounds")


# ----------------------------------------------------------------------
# constants, computed here from their closed forms
# ----------------------------------------------------------------------

def quadratic_floor(k: int, z: np.ndarray) -> np.ndarray:
    """a_1 = 1; for k >= 2, (sqrt(k/2) z^2 + sqrt(2/k))/2 inside |z| < sqrt(2/k), |z| outside."""
    z = np.asarray(z, dtype=float)
    if k == 1:
        return np.ones_like(z)
    cut = math.sqrt(2.0 / k)
    return np.where(np.abs(z) < cut, (math.sqrt(k / 2.0) * z * z + cut) / 2.0, np.abs(z))


def sextic_root() -> float:
    """The root in (0, 1) of -t^6 - 4t^5 - 4t^4 + 4t^3 + 10t^2 + 4t - 2 (z_0)."""
    roots = np.roots([-1.0, -4.0, -4.0, 4.0, 10.0, 4.0, -2.0])
    real = [r.real for r in roots if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]
    if len(real) != 1:
        raise ArithmeticError(f"expected one sextic root in (0, 1), got {real}")
    return float(real[0])


def u4_zero() -> float:
    """u_4(0) from its nested-radical formula, cross-checked against the value
    of (t^2 - 1 + sqrt(2 - t^2))/(1 + t) at its minimiser z_0."""
    c = (45.0 * SQRT2 + 3.0 * math.sqrt(3.0 * (502.0 * SQRT2 + 945.0)) + 145.0) ** (1.0 / 3.0)
    value = c / 3.0 - 5.0 / 3.0 - 2.0 * (3.0 * SQRT2 + 1.0) / (3.0 * c)
    t = sextic_root()
    at_root = (t * t - 1.0 + math.sqrt(2.0 - t * t)) / (1.0 + t)
    if abs(value - at_root) > 1e-12:
        raise ArithmeticError(f"u_4(0) formula {value} disagrees with {at_root} at z_0")
    return value


HEADLINE_U0 = {2: 0.5, 3: SQRT2 - 1.0, 4: u4_zero()}
Z0 = sextic_root()
FIRST_SWITCH_K3 = math.ceil((1.0 - SQRT2 / 2.0) * 10_000)   # K=3 game at T = 10^4


def unconstrained_regret(T: int) -> float:
    """R(T) = E|S_T| for a +-1 random walk: the minimax regret of the
    unconstrained T-round 1-d game, from the binomial sum."""
    return sum(math.comb(T, j) * abs(2 * j - T) for j in range(T + 1)) / 2.0 ** T


# ----------------------------------------------------------------------
# labctl fugal: the u_k grid, the printed table, the policy
# ----------------------------------------------------------------------

def read_grid(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    header = lines[0].split(",")
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, values


def check_fugal_grid(text: str, K: int, N: int) -> list[str]:
    """u_1..u_K on the uniform grid: floor, cap, monotonicity in k,
    symmetry, normalisation and the headline values at z = 0."""
    header, vals = read_grid(text)
    want = ["z"] + [f"u_{k}" for k in range(1, K + 1)]
    if header != want:
        return [f"grid header {header} != {want}"]
    if vals.shape != (N + 1, K + 1):
        return [f"grid shape {vals.shape} != {(N + 1, K + 1)}"]
    z, u = vals[:, 0], vals[:, 1:]
    bad = []
    if np.max(np.abs(z - np.linspace(-1.0, 1.0, N + 1))) > 1e-12:
        bad.append("z column is not the uniform grid on [-1, 1]")
    if np.max(np.abs(u[:, 0] - 1.0)) > 1e-12:
        bad.append("u_1 is not identically 1")
    if np.max(np.abs(u[[0, -1], :] - 1.0)) > 1e-12:
        bad.append("u_k(+-1) != 1")
    cap = (z * z + 1.0) / 2.0
    mid = N // 2
    for k in range(1, K + 1):
        uk = u[:, k - 1]
        dip = float(np.max(quadratic_floor(k, z) - FLOOR_TOL - uk))
        if dip > 0.0:
            bad.append(f"u_{k} below a_{k} - {FLOOR_TOL} by {dip:.3g}")
        if k >= 2 and np.any(uk > cap + FLOOR_TOL):
            bad.append(f"u_{k} above (z^2+1)/2 + {FLOOR_TOL}")
        if k < K and np.any(u[:, k] > uk + MONOTONE_TOL):
            bad.append(f"u_{k + 1} > u_{k} + {MONOTONE_TOL}")
        if np.max(np.abs(uk - uk[::-1])) > SYMMETRY_TOL:
            bad.append(f"u_{k} is not even in z")
        scaled = uk[mid] * math.sqrt(2.0 * k)
        if scaled < 1.0 - FLOOR_TOL * math.sqrt(2.0 * k):
            bad.append(f"u_{k}(0) sqrt(2k) = {scaled} < 1")
        if k in HEADLINE_U0 and abs(uk[mid] - HEADLINE_U0[k]) > HEADLINE_TOL:
            bad.append(f"u_{k}(0) = {uk[mid]} vs closed form {HEADLINE_U0[k]}")
    return bad


def check_fugal_table(stdout: str, grid_text: str) -> list[str]:
    """The u_k(0) table labctl prints agrees with the grid it wrote."""
    _, vals = read_grid(grid_text)
    at_zero = vals[(vals.shape[0] - 1) // 2, 1:]
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0].isdigit():
            printed[int(parts[0])] = (float(parts[1]), float(parts[2]))
    bad = []
    if sorted(printed) != list(range(1, len(at_zero) + 1)):
        return [f"printed table rows {sorted(printed)}"]
    for k, (u0, floor0) in printed.items():
        if abs(u0 - at_zero[k - 1]) > 6e-7:
            bad.append(f"printed u_{k}(0) {u0} vs grid {at_zero[k - 1]}")
        if abs(floor0 - 1.0 / math.sqrt(2.0 * k)) > 6e-7:
            bad.append(f"printed 1/sqrt(2k) for k={k} is {floor0}")
    return bad


def _flip(key: str) -> str:
    return key.translate(str.maketrans("+-", "-+"))


def check_policy(policy: dict, K: int, N: int) -> list[str]:
    """2^K - 1 nodes, actions and fractions in range, fractions summing to 1
    along every sign path, and mirror symmetry under flipping the signs."""
    if policy.get("budget_K") != K or policy.get("resolution") != N:
        return [f"policy header K={policy.get('budget_K')} N={policy.get('resolution')}"]
    nodes = policy["nodes"]
    if len(nodes) != 2 ** K - 1:
        return [f"policy has {len(nodes)} nodes, not 2^K - 1 = {2 ** K - 1}"]
    if any(len(key) >= K or key.strip("+-") for key in nodes):
        return ["policy keys are not sign prefixes shorter than K"]
    bad = []
    for key, nd in nodes.items():
        if not -1.0 - BOX_TOL <= nd["x"] <= 1.0 + BOX_TOL:
            bad.append(f"node {key!r}: action {nd['x']} outside [-1, 1]")
        for m in ("m_plus", "m_minus"):
            if not -BOX_TOL <= nd[m] <= 1.0 + BOX_TOL:
                bad.append(f"node {key!r}: {m} {nd[m]} outside [0, 1]")
        mirror = nodes[_flip(key)]
        if (abs(nd["x"] + mirror["x"]) > SYMMETRY_TOL
                or abs(nd["m_plus"] - mirror["m_minus"]) > SYMMETRY_TOL):
            bad.append(f"node {key!r} is not the mirror of {_flip(key)!r}")
    sums = {"": 0.0}
    for _ in range(K):
        nxt = {}
        for key, s in sums.items():
            nd = nodes[key]
            nxt[key + "+"] = s + nd["m_plus"]
            nxt[key + "-"] = s + nd["m_minus"]
        sums = nxt
    for path, s in sums.items():
        if abs(s - 1.0) > PATH_SUM_TOL:
            bad.append(f"fractions along {path!r} sum to {s}")
    return bad[:20]


# ----------------------------------------------------------------------
# labctl simulate: one CSV per sweep spec
# ----------------------------------------------------------------------

def expected_keys(spec: dict) -> list[tuple[int, int, int, int]]:
    sweep = spec["sweep"]
    reps = spec.get("repetitions", 1)
    keys = [(T, K, n, spec["seed"] + r) for T in sweep["T"] for K in sweep["K"]
            for n in sweep.get("n", [1]) for r in range(reps)]
    return sorted(keys)


def row_bounds(row: dict, spec: dict) -> tuple[float, float]:
    """(lower, upper) the row's regret must respect: the adversary's forced
    regret below and the mini-batch guarantee above (inf when none applies)."""
    T, K, n = row["T"], row["K"], row["n"]
    adversary = spec["adversary_id"]
    lower = -math.inf
    if adversary == "stopping":
        lower = T / (2.0 * math.sqrt(K))
    elif adversary == "orthogonal":
        lower = T / math.sqrt(K)
    elif adversary == "product":
        lower = n * T / (2.0 * math.sqrt(K))
    elif adversary == "exhaustive_sign":
        lower = unconstrained_regret(T)
    upper = math.inf
    if spec["player_id"] == "minibatch":
        scale = n if str(spec.get("player_norm", 2)) == "inf" else 1
        upper = scale * 2.0 * math.ceil(T / K) * math.sqrt(K)
    return lower, upper


def check_sweep(text: str, spec: dict) -> tuple[list[str], int]:
    """Rows of one simulate sweep.  A NaN regret is the program reporting a
    failed game (budget violation): it counts as failed, not as wrong."""
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != SIMULATE_COLUMNS:
        return [f"simulate header {reader.fieldnames}"], 0
    rows = []
    for raw in reader:
        rows.append({"T": int(raw["T"]), "K": int(raw["K"]), "n": int(raw["n"]),
                     "seed": int(raw["seed"]), "regret": float(raw["regret"]),
                     "switch_count": int(raw["switch_count"]),
                     "player_id": raw["player_id"], "adversary_id": raw["adversary_id"]})
    keys = [(r["T"], r["K"], r["n"], r["seed"]) for r in rows]
    want = expected_keys(spec)
    if keys != want:
        return [f"rows {keys} != expected (T,K,n,seed) order {want}"], 0
    bad = []
    failed = 0
    for r in rows:
        tag = f"{spec['player_id']}/{spec['adversary_id']} T={r['T']} K={r['K']} n={r['n']}"
        if (r["player_id"], r["adversary_id"]) != (spec["player_id"], spec["adversary_id"]):
            bad.append(f"{tag}: row names {r['player_id']}/{r['adversary_id']}")
        if math.isnan(r["regret"]):
            failed += 1
            continue
        if not math.isfinite(r["regret"]):
            bad.append(f"{tag}: regret {r['regret']}")
            continue
        if r["switch_count"] > r["K"] - 1:
            bad.append(f"{tag}: {r['switch_count']} switches with budget K={r['K']}")
        lower, upper = row_bounds(r, spec)
        if r["regret"] < lower - LOWER_TOL:
            bad.append(f"{tag}: regret {r['regret']} under its lower bound {lower}")
        if r["regret"] > upper + UPPER_TOL:
            bad.append(f"{tag}: regret {r['regret']} over its upper bound {upper}")
    return bad, failed


# ----------------------------------------------------------------------
# labctl verify: exit code and report
# ----------------------------------------------------------------------

def check_verify(report: list[dict], exit_code: int) -> tuple[list[str], int]:
    """Every named check is present; a check the suite marks failed counts as
    a failed operation; the exit code agrees; headline values match the
    constants computed above within the suite's stated tolerances."""
    by_name = {r["check_name"]: r for r in report}
    missing = [name for name in VERIFY_CHECKS if name not in by_name]
    failed = len(missing) + sum(1 for name in VERIFY_CHECKS
                                if name in by_name and by_name[name]["status"] != "pass")
    bad = [f"verify report lacks {name}" for name in missing]
    if (exit_code == 0) != (failed == 0):
        bad.append(f"exit code {exit_code} with {failed} failed checks")
    measured = {}
    for name in ("fugal.constants_exact", "fugal.unequal_blocks",
                 "oracle.unconstrained_closed_form"):
        if name in by_name:
            measured.update(by_name[name]["measured"])
    expected = {"u2_zero": (HEADLINE_U0[2], HEADLINE_TOL),
                "u3_zero": (HEADLINE_U0[3], HEADLINE_TOL),
                "u4_zero": (HEADLINE_U0[4], HEADLINE_TOL),
                "z0": (Z0, Z0_TOL),
                "first_switch_round": (FIRST_SWITCH_K3, SWITCH_ROUND_TOL),
                "r3_over_sqrt3": (math.sqrt(3.0) / 2.0, R3_TOL)}
    for key, (value, tol) in expected.items():
        if key not in measured:
            bad.append(f"verify report lacks {key}")
        elif not abs(measured[key] - value) <= tol:
            bad.append(f"verify {key} = {measured[key]} vs {value} (tolerance {tol})")
    return bad, failed
