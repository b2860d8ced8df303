"""switchlab benchmark: four workloads through ``labctl``, end to end and per module.

    python3 perfbench/run.py --workload fugal-solve --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from the repository root.  One process per run: the benchmark imports
switchlab from ``src/`` of the checkout it sits in, writes the workload's
spec files, and then calls ``labctl.main`` in-process for whole rounds of
the workload until the next round would end after ``--seconds``.  Before
every ``labctl`` call the module-level caches of switchlab are emptied, so
each call starts as cold as a fresh ``labctl`` process.  After every round
the outputs are checked (see checks.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps switchlab's
public functions in spans (see tracing.py), prints the per-module metrics and
writes the spans to ``perfbench/out/<workload>/trace.npz``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("fugal-solve", "fugal-policy", "game-sweep", "verify")
FUGAL = {"fugal-solve": (8, 2000), "fugal-policy": (12, 500)}   # (K, N)
SETUP_SAMPLES = 15
MIN_ROUNDS = {"game-sweep": 2}   # the second round checks that repeats are byte-identical
SWEEP_THREADS = min(len(os.sched_getaffinity(0)), 4)   # nproc, under labctl's own cap of 4


@dataclass
class Call:
    """One ``labctl`` command line of a round, with the spec it reads."""
    name: str
    argv: list[str]
    spec: dict | None
    out: str

    @property
    def ops(self) -> int:
        if self.argv[0] == "simulate":
            return len(checks.expected_keys(self.spec))
        if self.argv[0] == "verify":
            return len(checks.VERIFY_CHECKS)
        return 1


def sweep_specs(seed: int) -> list[tuple[str, dict]]:
    """Long games (T up to 10^4, K from 4 to 64) and many short exhaustive
    games.  The seed moves the long horizons by a few rounds and seeds the
    random-switch player and the rows."""
    rng = random.Random(seed)
    long_T = [1000 - rng.randrange(10), 10_000 - rng.randrange(10)]
    K = [4, 16, 64]
    base = {"mode": "simulate", "repetitions": 1, "seed": seed}
    return [
        ("minibatch-stopping", dict(base, sweep={"T": long_T, "K": K, "n": [1]},
                                    player_id="minibatch", adversary_id="stopping")),
        ("random-orthogonal", dict(base, sweep={"T": long_T, "K": K, "n": [2, 5]},
                                   player_id="random_switch", adversary_id="orthogonal")),
        ("minibatch-product", dict(base, sweep={"T": long_T, "K": K, "n": [3]},
                                   player_id="minibatch", adversary_id="product",
                                   player_norm="inf")),
        ("minibatch-exhaustive", dict(base, sweep={"T": [10, 12], "K": [2, 3, 4], "n": [1]},
                                      player_id="minibatch", adversary_id="exhaustive_sign")),
    ]


def make_calls(workload: str, seed: int, workdir: str) -> list[Call]:
    if workload in FUGAL:
        K, N = FUGAL[workload]
        # labctl fugal has no random input: the seed only lands in the spec.
        specs = [("fugal", {"mode": "fugal", "sweep": {"K": [K]}, "resolution": N,
                            "seed": seed})]
    elif workload == "game-sweep":
        specs = sweep_specs(seed)
    else:
        # labctl verify takes no input; the seed has nothing to vary.
        return [Call("verify", ["verify", "--out", os.path.join(workdir, "verify_report.json")],
                     None, os.path.join(workdir, "verify_report.json"))]
    calls = []
    for name, spec in specs:
        config = os.path.join(workdir, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2)
        out = os.path.join(workdir, f"{name}.csv")
        calls.append(Call(name, [spec["mode"], "--config", config, "--out", out], spec, out))
    return calls


def setup(workload: str, seed: int):
    """Import switchlab from this checkout and generate the specs."""
    if not os.path.isfile(os.path.join(SRC, "switchlab", "labctl.py")):
        raise SystemExit(f"no switchlab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    from switchlab import labctl
    if not os.path.abspath(labctl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported {labctl.__file__}, not the checkout's own switchlab")
    os.environ["LABCTL_THREADS"] = str(SWEEP_THREADS)
    workdir = os.path.join(OUT, workload)
    os.makedirs(workdir, exist_ok=True)
    return labctl, make_calls(workload, seed, workdir)


def setup_seconds(workload: str, seed: int) -> float:
    """Time from the start of a fresh interpreter until switchlab is
    imported and the specs are written."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def reset_caches(package: str = "switchlab") -> None:
    """Empty every module-level cache, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, obj in vars(module).items():
            if "cache" in attr and isinstance(obj, (dict, list, set)):
                obj.clear()
            elif callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_call(labctl_main, call: Call) -> tuple[float, object, str]:
    """Time one labctl call; returns (seconds, exit code or exception, stdout)."""
    reset_caches()
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = labctl_main(call.argv)
    except Exception as exc:   # a crashing labctl call is a failed operation
        traceback.print_exc(file=sys.stderr)
        rc = exc
    return time.perf_counter() - start, rc, buf.getvalue()


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def check_call(call: Call, rc, stdout: str, first_bytes: dict) -> tuple[list[str], int]:
    """(problems, failed operations) for one finished call."""
    if isinstance(rc, Exception):
        return [], call.ops
    mode = call.argv[0]
    if mode == "verify":
        report = json.loads(read(call.out))
        return checks.check_verify(report, rc)
    if rc != 0:
        return [f"{call.name}: exit code {rc}"], 0
    text = read(call.out)
    if mode == "fugal":
        K, N = call.spec["sweep"]["K"][0], call.spec["resolution"]
        policy = json.loads(read(os.path.splitext(call.out)[0] + "_policy.json"))
        problems = (checks.check_fugal_grid(text, K, N) + checks.check_fugal_table(stdout, text)
                    + checks.check_policy(policy, K, N))
        return [f"{call.name}: {p}" for p in problems], 0
    problems, failed = checks.check_sweep(text, call.spec)
    if first_bytes.setdefault(call.name, text) != text:
        problems.append("CSV differs from the first round's for the same spec and seed")
    return [f"{call.name}: {p}" for p in problems], failed


def game_rounds(spec: dict) -> int:
    """Rounds one simulate spec plays: T per game, 2^T games per exhaustive row."""
    exhaustive = spec["adversary_id"] == "exhaustive_sign"
    return sum(2 ** T * T if exhaustive else T for T, _, _, _ in checks.expected_keys(spec))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    labctl, calls = setup(workload, seed)
    main = labctl.main
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        main = tracer.wrap("labctl.main", labctl.main)

    walls, problems, first_bytes, setups = [], [], {}, []
    attempted = failed = 0
    begin = time.perf_counter()

    def sample_setup(share: float) -> None:
        """Set up in fresh interpreters until ``share`` of the samples are
        taken, so that the samples are spread over the whole run."""
        while not trace and len(setups) < min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * share)):
            setups.append(setup_seconds(workload, seed))

    sample_setup(1 / SETUP_SAMPLES)
    while True:
        gc.collect()
        wall = 0.0
        cpu = time.process_time()
        for call in calls:
            dt, rc, stdout = run_call(main, call)
            wall += dt
            found, n_failed = check_call(call, rc, stdout, first_bytes)
            problems += found
            attempted += call.ops
            failed += n_failed
            sample_setup((time.perf_counter() - begin) / seconds)
        walls.append(wall)
        print(f"round {len(walls)}: {wall:.3f} s wall, {time.process_time() - cpu:.3f} s cpu")
        elapsed = time.perf_counter() - begin
        if (len(walls) >= MIN_ROUNDS.get(workload, 1)
                and elapsed * (len(walls) + 1) / len(walls) > seconds):
            break
    sample_setup(1.0)

    for p in problems[:20]:
        print(f"wrong output: {p}", file=sys.stderr)
    wall_s = statistics.median(walls)
    if trace:
        tracer.save(os.path.join(OUT, workload, "trace.npz"))
        metrics = tracing.layer_metrics(tracer, len(walls), wall_s, checks.VERIFY_CHECKS)
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"), "wall_s": (wall_s, "s"),
                   "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                    "MiB")}
        if workload == "game-sweep":
            rounds = sum(game_rounds(c.spec) for c in calls)
            print(f"game_rounds_per_s = {rounds / wall_s:.1f} rounds/s "
                  f"({rounds} rounds per sweep, {SWEEP_THREADS} pool threads)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        results[workload] = result
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        setup(args.workload, args.seed)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
