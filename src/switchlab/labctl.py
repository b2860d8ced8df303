"""Experiment harness and CLI.

    labctl simulate --config spec.json [--out rows.csv]
    labctl fugal    --config spec.json [--out grid.csv]
    labctl oracle   --config spec.json [--out table.csv]
    labctl verify   [--out report.json] [--only TAG]

Config files are JSON documents mirroring :class:`ExperimentSpec`; each
mode accepts only the keys it reads (``MODE_KEYS``).  ``verify`` reads no
config, and every output path comes from ``--out``.  Sweep cells run one
after another in this process (play is pure Python, so threads would only
queue on the interpreter lock); rows are sorted by (T, K, n, seed) before
writing to CSV, so identical spec + seed produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

from . import fugal_engine as fe
from . import minimax_oracle as mo
from .adversaries import ADVERSARIES, make_adversary
from .errors import BudgetViolationError
from .game_core import GameConfig, as_integer, play_game, worst_case_sign_regret
from .players import PLAYERS, make_player
from .verify import run_checks

_PSEUDO_ADVERSARIES = ("exhaustive_sign",)

#: the config keys each mode reads (``sweep.X`` names a field of ``sweep``);
#: a spec that sets any other key is rejected rather than silently ignored.
#: One exception: ``fugal`` reads no ``seed``, but the benchmark's specs set it
MODE_KEYS = {
    "simulate": {"sweep.T", "sweep.K", "sweep.n", "player_id", "player_params",
                 "adversary_id", "adversary_params", "player_norm", "repetitions",
                 "seed"},
    "fugal": {"sweep.K", "resolution", "seed"},
    "oracle": {"sweep.T", "sweep.K", "sweep.Z"},
}


def _integers(key: str, vs) -> list[int]:
    return [as_integer(key, v) for v in vs]


def _params(key: str, v) -> dict:
    if v is not None and not isinstance(v, dict):
        raise ValueError(f"{key} must be an object of constructor keywords, got {v!r}")
    return v or {}


#: how ``from_dict`` converts each config key it does not take as given; a
#: key the spec does not set keeps its dataclass default
_PARSE = {
    "sweep.T": _integers, "sweep.K": _integers, "sweep.n": _integers,
    "sweep.Z": lambda key, vs: [float(z) for z in vs],
    "player_params": _params, "adversary_params": _params,
    "player_norm": lambda key, v: float(v),
    "repetitions": as_integer, "seed": as_integer, "resolution": as_integer,
}


@dataclass
class ExperimentSpec:
    mode: str
    sweep_T: list[int] = field(default_factory=list)
    sweep_K: list[int] = field(default_factory=list)
    sweep_n: list[int] = field(default_factory=lambda: [1])
    sweep_Z: list[float] = field(default_factory=lambda: [0.0])
    player_id: str = "constant"
    player_params: dict = field(default_factory=dict)
    adversary_id: str = "zero"
    adversary_params: dict = field(default_factory=dict)
    player_norm: float = 2.0
    repetitions: int = 1
    seed: int = 0
    resolution: int = fe.DEFAULT_RESOLUTION

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        if not isinstance(d, dict):
            raise ValueError(f"a config is a JSON object, got {type(d).__name__}")
        d = dict(d)
        if "mode" not in d:
            raise ValueError(f"config needs a 'mode' key, one of {sorted(MODE_KEYS)}")
        mode = d.pop("mode")
        if mode not in MODE_KEYS:
            raise ValueError(f"unknown mode {mode!r}")
        sweep = d.pop("sweep", {})
        if not isinstance(sweep, dict) or not all(isinstance(v, list) for v in sweep.values()):
            raise ValueError(f"'sweep' must map T, K, n or Z to lists, got {sweep!r}")
        given = {**d, **{f"sweep.{k}": v for k, v in sweep.items()}}
        unused = sorted(set(given) - MODE_KEYS[mode])
        if unused:
            raise ValueError(f"{mode} does not use {unused}")
        fields = {key.replace(".", "_"): _PARSE[key](key, v) if key in _PARSE else v
                  for key, v in given.items()}
        spec = cls(mode=mode, **fields)
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.mode in ("simulate", "oracle") and (not self.sweep_T or not self.sweep_K):
            raise ValueError(f"{self.mode} needs sweep.T and sweep.K")
        if self.mode == "simulate":
            for T in self.sweep_T:
                for K in self.sweep_K:
                    if K > T:
                        raise ValueError(f"sweep pair K={K} > T={T}")
            if self.player_id not in PLAYERS:
                raise ValueError(f"unknown player id {self.player_id!r}")
            if self.adversary_id not in (*ADVERSARIES, *_PSEUDO_ADVERSARIES):
                raise ValueError(f"unknown adversary id {self.adversary_id!r}")
            if self.adversary_id in _PSEUDO_ADVERSARIES and self.adversary_params:
                raise ValueError(f"{self.adversary_id} takes no adversary_params")
        if self.mode == "oracle" and min(self.sweep_K) < 1:
            raise ValueError("oracle needs every sweep.K >= 1")
        if self.mode == "fugal" and not self.sweep_K:
            raise ValueError("fugal needs sweep.K")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class ResultRow:
    T: int
    K: int
    n: int
    player_id: str
    adversary_id: str
    seed: int
    regret: float
    switch_count: int
    normalized: float
    bound_lower: float
    bound_upper: float
    within_bounds: bool


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _simulate_cell(spec: ExperimentSpec, T: int, K: int, n: int, rep: int) -> ResultRow:
    seed = spec.seed + rep
    cfg = GameConfig(horizon_T=T, budget_K=K, dimension_n=n,
                     player_norm_p=spec.player_norm, seed=seed)
    if spec.adversary_id in _PSEUDO_ADVERSARIES:
        regret, traj = worst_case_sign_regret(
            lambda: make_player(spec.player_id, cfg, spec.player_params), cfg)
        switches = traj.switch_count
    else:
        player = make_player(spec.player_id, cfg, spec.player_params)
        adversary = make_adversary(spec.adversary_id, cfg, spec.adversary_params)
        try:
            traj = play_game(player, adversary, cfg)
            regret = traj.regret
            switches = traj.switch_count
        except BudgetViolationError:
            regret = math.nan
            switches = K
    lower, upper = mo.minimax_sandwich(T, K, n, spec.player_norm)
    normalized = regret * math.sqrt(K) / T
    within = bool(lower <= regret <= upper) if math.isfinite(regret) else False
    return ResultRow(T=T, K=K, n=n, player_id=spec.player_id,
                     adversary_id=spec.adversary_id, seed=seed, regret=regret,
                     switch_count=switches, normalized=normalized,
                     bound_lower=lower, bound_upper=upper, within_bounds=within)


def run_simulate(spec: ExperimentSpec) -> list[ResultRow]:
    rows = [_simulate_cell(spec, T, K, n, rep)
            for T in spec.sweep_T for K in spec.sweep_K for n in spec.sweep_n
            for rep in range(spec.repetitions)]
    rows.sort(key=lambda r: (r.T, r.K, r.n, r.seed))
    return rows


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_rows(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, c)) for c in RESULT_COLUMNS) + "\n")


def run_fugal(spec: ExperimentSpec, out: str | None = None) -> tuple[str, str]:
    K = max(spec.sweep_K)
    tables, policy = fe.u_k_solve(K, spec.resolution)
    out = out or f"fugal_grid_K{K}_N{spec.resolution}.csv"
    policy_out = os.path.splitext(out)[0] + "_policy.json"
    fe.write_grid_csv(tables, out)
    fe.write_policy_json(policy, policy_out)
    print(f"{'k':>3} {'u_k(0)':>12} {'1/sqrt(2k)':>12}")
    for k, t in enumerate(tables, start=1):
        print(f"{k:>3} {t.interp(0.0):>12.6f} {1.0 / math.sqrt(2.0 * k):>12.6f}")
    print(f"wrote {out} and {policy_out}")
    return out, policy_out


def run_oracle(spec: ExperimentSpec, out: str | None = None) -> list[mo.OracleReport]:
    """Rows in T -> K -> Z order, each (T, Z) solved once at the largest
    swept K <= T, which holds every smaller budget."""
    reports = []
    for T in spec.sweep_T:
        Ks = [K for K in spec.sweep_K if K <= T]
        if not Ks:
            continue
        by_budget = [mo.exact_minimax_budgets(mo.OracleConfig(T, max(Ks), Z))
                     for Z in spec.sweep_Z]
        reports += [budgets[K - 1] for K in Ks for budgets in by_budget]
    out = out or "oracle_table.csv"
    mo.write_oracle_csv(reports, out)
    print(f"wrote {out} ({len(reports)} rows)")
    return reports


def run_verify(only: str | None = None, out: str | None = None) -> int:
    results = run_checks(only)
    if not results:
        print(f"no checks match --only {only!r}", file=sys.stderr)
        return 2
    for r in results:
        mark = "PASS" if r.status == "pass" else "FAIL"
        print(f"[{mark}] {r.check_name} ({r.elapsed_s:.1f}s)")
        for line in r.failures:
            print(f"       {line}")
    report = [r.to_report_dict() for r in results]
    out = out or "verify_report.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return 0 if all(r.status == "pass" for r in results) else 1


def _load_spec(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentSpec.from_dict(json.load(fh))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="labctl",
                                     description="switching-constrained OLO lab")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("simulate", "fugal", "oracle"):
        sp = sub.add_parser(mode)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
    vp = sub.add_parser("verify")
    vp.add_argument("--out", default=None)
    vp.add_argument("--only", default=None)
    args = parser.parse_args(argv)

    if args.mode == "verify":
        return run_verify(only=args.only, out=args.out)
    spec = _load_spec(args.config)
    if spec.mode != args.mode:
        raise ValueError(f"config mode {spec.mode!r} does not match command {args.mode!r}")
    if args.mode == "simulate":
        rows = run_simulate(spec)
        out = args.out or "simulate_rows.csv"
        write_rows(rows, out)
        print(f"wrote {out} ({len(rows)} rows)")
        return 0
    if args.mode == "fugal":
        run_fugal(spec, args.out)
        return 0
    run_oracle(spec, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
