"""Self-test of the benchmark's output checkers.

    python3 perfbench/selftest.py

Runs labctl at desk scale, requires every checker to accept the real
outputs, then corrupts them one fault at a time and requires the matching
checker to reject each corrupted copy.  Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import sys

import numpy as np

import checks
from run import OUT, SRC, read

K, N = 4, 500
SWEEPS = {
    "stopping": {"mode": "simulate", "sweep": {"T": [100, 1000], "K": [4, 16]},
                 "player_id": "minibatch", "adversary_id": "stopping", "seed": 0},
    "orthogonal": {"mode": "simulate", "sweep": {"T": [100], "K": [4], "n": [2, 3]},
                   "player_id": "random_switch", "adversary_id": "orthogonal", "seed": 0},
    "product": {"mode": "simulate", "sweep": {"T": [100], "K": [4], "n": [2]},
                "player_id": "minibatch", "adversary_id": "product", "player_norm": "inf",
                "seed": 0},
    "exhaustive": {"mode": "simulate", "sweep": {"T": [8], "K": [2, 3]},
                   "player_id": "minibatch", "adversary_id": "exhaustive_sign", "seed": 0},
}


def labctl(argv: list[str]) -> str:
    from switchlab import labctl as cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"labctl {argv} exited {rc}")
    return buf.getvalue()


def write_spec(workdir: str, name: str, spec: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def grid_text(header: list[str], vals: np.ndarray) -> str:
    return "\n".join([",".join(header)] + [",".join(f"{v:.17g}" for v in row)
                                            for row in vals]) + "\n"


def main() -> int:
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, "selftest")
    os.makedirs(workdir, exist_ok=True)
    results = []

    def case(name: str, problems: list[str], want: str | None) -> None:
        """want=None: the output must pass; otherwise a problem must mention ``want``."""
        ok = not problems if want is None else any(want in p for p in problems)
        results.append(ok)
        verdict = "accepted" if not problems else f"rejected ({problems[0]})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")

    # fugal grid and policy
    config = write_spec(workdir, "fugal", {"mode": "fugal", "sweep": {"K": [K]}, "resolution": N})
    out = os.path.join(workdir, "fugal.csv")
    stdout = labctl(["fugal", "--config", config, "--out", out])
    text = read(out)
    policy = json.loads(read(os.path.join(workdir, "fugal_policy.json")))
    case("real u_k grid", checks.check_fugal_grid(text, K, N)
         + checks.check_fugal_table(stdout, text), None)
    case("real policy", checks.check_policy(policy, K, N), None)

    header, vals = checks.read_grid(text)
    j = int(round(0.65 * N))   # z = 0.3, kept even by moving z = -0.3 too
    for node in (j, N - j):
        vals[node, 3] = checks.quadratic_floor(3, vals[node, 0]) - 0.01
    case("u_3 node pushed below its floor", checks.check_fugal_grid(grid_text(header, vals), K, N),
         "below a_3")

    bad = copy.deepcopy(policy)
    last = "+" * (K - 1)
    shortfall = 0.1 + sum(bad["nodes"]["+" * i]["m_plus"] for i in range(K)) - 1.0
    bad["nodes"][last]["m_plus"] -= shortfall                 # the all-plus path sums to 0.9
    bad["nodes"]["-" * (K - 1)]["m_minus"] -= shortfall       # its mirror, so only the sum is off
    case("policy path summing to 0.9", checks.check_policy(bad, K, N), "fractions along")

    # sweep rows
    for name, spec in SWEEPS.items():
        config = write_spec(workdir, name, spec)
        out = os.path.join(workdir, f"{name}.csv")
        labctl(["simulate", "--config", config, "--out", out])
        text = read(out)
        problems, failed = checks.check_sweep(text, spec)
        case(f"real {name} rows", problems + [f"{failed} failed"] * bool(failed), None)
        lines = text.splitlines()
        cols = lines[1].split(",")
        T, Kr, n = int(cols[0]), int(cols[1]), int(cols[2])
        lower, _ = checks.row_bounds({"T": T, "K": Kr, "n": n}, spec)
        cols[6] = repr(0.9 * lower)
        lines[1] = ",".join(cols)
        case(f"{name} row with regret under its bound",
             checks.check_sweep("\n".join(lines) + "\n", spec)[0], "under its lower bound")
    shuffled = text.splitlines()
    shuffled[1], shuffled[2] = shuffled[2], shuffled[1]
    case("rows out of (T,K,n,seed) order", checks.check_sweep("\n".join(shuffled) + "\n", spec)[0],
         "order")

    # verify report: a well-formed passing report, then one wrong headline value
    report = [{"check_name": name, "status": "pass", "measured": {}} for name in checks.VERIFY_CHECKS]
    by_name = {r["check_name"]: r for r in report}
    by_name["fugal.constants_exact"]["measured"] = {
        "u2_zero": 0.5, "u3_zero": math.sqrt(2.0) - 1.0, "u4_zero": checks.HEADLINE_U0[4],
        "z0": checks.Z0}
    by_name["fugal.unequal_blocks"]["measured"] = {"first_switch_round": checks.FIRST_SWITCH_K3}
    by_name["oracle.unconstrained_closed_form"]["measured"] = {
        "r3_over_sqrt3": math.sqrt(3.0) / 2.0}
    case("well-formed verify report", checks.check_verify(report, 0)[0], None)
    wrong = copy.deepcopy(report)
    wrong[0]["measured"]["u3_zero"] += 0.01
    case("verify report with u_3(0) off by 0.01", checks.check_verify(wrong, 0)[0], "u3_zero")
    wrong = copy.deepcopy(report)
    wrong[4]["status"] = "fail"
    problems, failed = checks.check_verify(wrong, 0)
    case("failed check with exit code 0", problems if failed == 1 else ["miscounted"], "exit code")

    print(f"{sum(results)}/{len(results)} checker cases behaved")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
