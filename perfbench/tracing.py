"""Spans around calls into switchlab's modules, and the per-module metrics
derived from them.

Nothing inside switchlab is edited: ``instrument`` rebinds the public
functions (and the player/adversary methods) named in ``FUNCTIONS`` to
wrappers that record one span per call.  A span is (id, name, start, end,
cpu, parent, thread, value): wall-clock start and end, the calling thread's
CPU time over the call, and one number about the call, such as the grid
size of an operator step or the rounds of a game.  Spans are appended as
tuples to one list in memory and written out when the run ends.

Per-module figures are taken from the CPU time, so that a call on a sweep
pool thread does not count the time it waited for the interpreter lock.
Only the sweep's own figures, ``labctl.run_simulate.s`` and
``labctl.run_simulate.cell_s_sum``, are wall-clock: the waiting is what
they show.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time

import numpy as np

FIELDS = ("id", "name", "start", "end", "cpu", "parent", "thread", "value")
GRID_SIZES = (200, 500, 1000, 2000)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._next_id = itertools.count().__next__
        self._next_thread = itertools.count().__next__
        self._local = threading.local()
        self._main_stack = self._register_thread()

    def _register_thread(self) -> list:
        self._local.thread = self._next_thread()
        self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, value=None):
        """``fn`` recording one span per call; ``value(args, result)`` gives
        the span's number.  A call on a pool thread with no open span is
        parented to the span open on the main thread (the sweep)."""
        name_id = len(self.names)
        self.names.append(name)
        append = self.spans.append
        clock = time.perf_counter
        cpu_clock = time.thread_time
        local = self._local
        main_stack = self._main_stack
        next_id = self._next_id
        register = self._register_thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = register()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            span_id = next_id()
            stack.append(span_id)
            start = clock()
            cpu = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                cpu_end = cpu_clock()
                end = clock()
                stack.pop()
                append((span_id, name_id, start, end, cpu_end - cpu, parent, local.thread, 0.0))
                raise
            cpu_end = cpu_clock()
            end = clock()
            stack.pop()
            # one C call, so records from two threads never interleave
            append((span_id, name_id, start, end, cpu_end - cpu, parent, local.thread,
                    value(args, result) if value else 0.0))
            return result

        return traced

    def table(self) -> np.ndarray:
        """Spans as rows indexed by span id, columns as in ``FIELDS``."""
        rows = np.array(self.spans, dtype=float).reshape(-1, len(FIELDS))
        out = np.empty_like(rows)
        out[rows[:, 0].astype(np.int64)] = rows
        return out

    def save(self, path: str) -> None:
        """Compressed columns; row i is span i, times in ns from the first span."""
        t = self.table()
        t0 = t[:, 2].min() if len(t) else 0.0
        np.savez_compressed(
            path, names=np.array(self.names), name=t[:, 1].astype(np.int16),
            start_ns=((t[:, 2] - t0) * 1e9).astype(np.int64),
            duration_ns=((t[:, 3] - t[:, 2]) * 1e9).astype(np.int64),
            cpu_ns=(t[:, 4] * 1e9).astype(np.int64),
            parent=t[:, 5].astype(np.int64), thread=t[:, 6].astype(np.int16), value=t[:, 7])


def _size_of_path(args, result) -> int:
    return os.path.getsize(args[1])


FUNCTIONS = (
    # (module, attribute, span name, value of a call)
    ("fugal_engine", "fugal_apply", "fugal_engine.fugal_apply", lambda a, r: a[0].resolution),
    ("fugal_engine", "solve_tables", "fugal_engine.solve_tables", None),
    ("fugal_engine", "extract_policy", "fugal_engine.extract_policy", lambda a, r: len(r.nodes)),
    ("fugal_engine", "operator_witness", "fugal_engine.operator_witness", None),
    ("fugal_engine", "write_grid_csv", "fugal_engine.write_grid_csv", _size_of_path),
    ("fugal_engine", "write_policy_json", "fugal_engine.write_policy_json", _size_of_path),
    ("game_core", "play_game", "game_core.play_game", lambda a, r: len(r.rounds)),
    ("players", "make_player", "players.make_player", None),
    ("labctl", "run_simulate", "labctl.run_simulate", None),
    ("labctl", "_simulate_cell", "labctl.simulate_cell", None),
    ("labctl", "write_rows", "labctl.write_rows", None),
    ("verify", "worst_case_sign_regret", "verify.worst_case_sign_regret",
     lambda a, r: 2 ** a[1].horizon_T),
    ("minimax_oracle", "exact_minimax_1d", "minimax_oracle.exact_minimax_1d", None),
)

METHODS = (
    # (module, base class, method, span name)
    ("players", "Player", "decide", "players.decide"),
    ("players", "Player", "observe", "players.observe"),
    ("adversaries", "Adversary", "respond", "adversaries.respond"),
)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def instrument(tracer: Tracer, package: str = "switchlab") -> None:
    """Rebind every reference to the traced functions in the package's
    modules (``from x import f`` copies included), wrap the player and
    adversary methods on every subclass that defines them, and wrap each
    acceptance check in place in ``verify.CHECKS``."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == package or name.startswith(package + "."))]
    mod = {name.rsplit(".", 1)[-1]: m for name, m in sys.modules.items()
           if name.startswith(package + ".")}
    for module, attr, span, value in FUNCTIONS:
        original = getattr(mod[module], attr)
        wrapped = tracer.wrap(span, original, value)
        for m in modules:
            for key, obj in list(vars(m).items()):
                if obj is original:
                    setattr(m, key, wrapped)
    for module, base, method, span in METHODS:
        for cls in _subclasses(getattr(mod[module], base)):
            if method in cls.__dict__:
                setattr(cls, method, tracer.wrap(span, cls.__dict__[method]))
    verify = mod["verify"]
    verify.CHECKS = tuple((name, tracer.wrap(f"verify.{name}", fn), budget)
                          for name, fn, budget in verify.CHECKS)


# ----------------------------------------------------------------------
# per-module metrics
# ----------------------------------------------------------------------

def _self_cpu(t: np.ndarray) -> np.ndarray:
    """CPU time minus that of the child spans on the same thread.  Children
    on a pool thread spend another thread's CPU time, so none is taken off."""
    parent = t[:, 5].astype(np.int64)
    same = parent >= 0
    same[same] = t[same, 6] == t[parent[same], 6]
    return t[:, 4] - np.bincount(parent[same], weights=t[same, 4], minlength=t.shape[0])


def layer_metrics(tracer: Tracer, rounds: int, traced_wall_s: float,
                  check_names: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Per-module figures, per round of the workload: counts and seconds
    are totals divided by ``rounds``; per-call figures are means over all
    calls (0 when the workload never calls the function).  Seconds are CPU
    seconds of the calling thread, except for the sweep's wall-clock pair."""
    t = tracer.table()
    wall = t[:, 3] - t[:, 2]
    cpu = t[:, 4]
    own = _self_cpu(t)
    names = np.array(tracer.names)[t[:, 1].astype(np.int64)]
    idx = {name: np.flatnonzero(names == name) for name in set(tracer.names)}
    empty = np.empty(0, dtype=np.int64)

    def calls(name):
        return len(idx.get(name, empty)) / rounds

    def total(name, column=cpu):
        return float(np.sum(column[idx.get(name, empty)])) / rounds

    def mean(name, scale, rows=None):
        rows = idx.get(name, empty) if rows is None else rows
        return float(np.mean(cpu[rows])) * scale if len(rows) else 0.0

    value = t[:, 7]
    m = {
        "fugal_engine.fugal_apply.calls": (calls("fugal_engine.fugal_apply"), "count"),
        "fugal_engine.fugal_apply.self_s": (total("fugal_engine.fugal_apply", own), "s"),
    }
    apply_rows = idx.get("fugal_engine.fugal_apply", empty)
    for N in GRID_SIZES:
        m[f"fugal_engine.fugal_apply.ms_per_call.N{N}"] = (
            mean("fugal_engine.fugal_apply", 1e3, apply_rows[value[apply_rows] == N]), "ms")
    m.update({
        "fugal_engine.solve_tables.calls": (calls("fugal_engine.solve_tables"), "count"),
        "fugal_engine.extract_policy.s": (total("fugal_engine.extract_policy"), "s"),
        "fugal_engine.extract_policy.nodes": (total("fugal_engine.extract_policy", value), "count"),
        "fugal_engine.operator_witness.calls": (calls("fugal_engine.operator_witness"), "count"),
        "fugal_engine.operator_witness.us_per_call": (mean("fugal_engine.operator_witness", 1e6), "us"),
        "fugal_engine.write_grid_csv.s": (total("fugal_engine.write_grid_csv"), "s"),
        "fugal_engine.write_grid_csv.bytes": (total("fugal_engine.write_grid_csv", value), "bytes"),
        "fugal_engine.write_policy_json.s": (total("fugal_engine.write_policy_json"), "s"),
        "fugal_engine.write_policy_json.bytes": (total("fugal_engine.write_policy_json", value), "bytes"),
    })
    game_rounds = total("game_core.play_game", value)
    m.update({
        "game_core.play_game.calls": (calls("game_core.play_game"), "count"),
        "game_core.play_game.rounds": (game_rounds, "count"),
        "game_core.play_game.self_s": (total("game_core.play_game", own), "s"),
        "game_core.play_game.us_per_round": (
            total("game_core.play_game") / game_rounds * 1e6 if game_rounds else 0.0, "us"),
        "players.decide.us_per_call": (mean("players.decide", 1e6), "us"),
        "players.observe.us_per_call": (mean("players.observe", 1e6), "us"),
        "players.make_player.s": (total("players.make_player"), "s"),
        "adversaries.respond.us_per_call": (mean("adversaries.respond", 1e6), "us"),
        "labctl.run_simulate.s": (total("labctl.run_simulate", wall), "s"),
        "labctl.run_simulate.cell_s_sum": (total("labctl.simulate_cell", wall), "s"),
        "labctl.run_simulate.cell_cpu_s_sum": (total("labctl.simulate_cell"), "s"),
        "labctl.write_rows.s": (total("labctl.write_rows"), "s"),
        "verify.worst_case_sign_regret.games": (total("verify.worst_case_sign_regret", value), "count"),
        "verify.worst_case_sign_regret.s": (total("verify.worst_case_sign_regret"), "s"),
        "minimax_oracle.exact_minimax_1d.calls": (calls("minimax_oracle.exact_minimax_1d"), "count"),
        "minimax_oracle.exact_minimax_1d.ms_per_call": (mean("minimax_oracle.exact_minimax_1d", 1e3), "ms"),
    })
    for name in check_names:
        m[f"verify.{name}.s"] = (total(f"verify.{name}"), "s")
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.spans"] = (t.shape[0] / rounds, "count")
    return m
