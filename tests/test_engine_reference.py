"""``play_game`` against the ndarray round loop it replaced
(``reference_engine.reference_play_game``), byte for byte, the tuple
round protocol of every registered strategy, and the honesty of the runs
that ``play_game`` advances by: what players hold and adversaries repeat."""

import math
import struct
from itertools import groupby
from operator import add

import numpy as np
import pytest

from reference_engine import (eager_block_lengths, eager_rounds, reference_add_repeated,
                              reference_epoch_step, reference_outside_ball, reference_play_game)
from switchlab import fugal_engine as fe
from switchlab.adversaries import ADVERSARIES, Adversary, ProductAdversary, make_adversary
from switchlab.errors import BudgetViolationError, UnsupportedConfigError
from switchlab.game_core import BALL_SLACK, GameConfig, add_repeated, outside_ball, play_game
from switchlab.players import PLAYERS, FugalPlayer, MinibatchPlayer, Player, make_player

#: horizon -> the budgets K <= T played at it
HORIZONS = {1: (1,), 7: (1, 2, 4), 1000: (1, 2, 4, 16)}
PARAMS = {"fugal": {"resolution": 200}}


def _configs(horizons=HORIZONS):
    for n in (1, 2, 3, 5):
        for p in (2.0, math.inf):
            for T, budgets in horizons.items():
                for K in budgets:
                    yield GameConfig(T, K, n, p, seed=n + K)


class _IntPlayer(Player):
    """Plays int zeros, then from round T//2 + 1 the int point -sign(W_1) e_1."""

    def __init__(self, config):
        self._n, self._move_at, self._t, self._W = config.dimension_n, config.horizon_T // 2, 0, 0

    def decide(self):
        x = 0 if self._t < self._move_at else (-1 if self._W > 0 else 1)
        return (x,) + (0,) * (self._n - 1)

    def observe(self, loss_w, count):
        self._t, self._W = self._t + 1, self._W + loss_w[0]


class _IntAdversary(Adversary):
    """The int loss sign(x_1) e_1, +1 at zero."""

    def __init__(self, config):
        self._rest = (0,) * (config.dimension_n - 1)

    def respond(self, player_x, is_moving, W):
        return (1 if player_x[0] >= 0 else -1,) + self._rest


class _SignedZeroPlayer(Player):
    """Alternates 0.0 and -0.0 in every coordinate: equal actions, so no move."""

    def __init__(self, config):
        self._n, self._t = config.dimension_n, 0

    def decide(self):
        return (-0.0 if self._t % 2 else 0.0,) * self._n

    def observe(self, loss_w, count):
        self._t += 1


class _SignedZeroAdversary(Adversary):
    """-0.0 and 0.0 losses in turn, with a half loss in the first coordinate
    every third round."""

    def __init__(self, config):
        self._n, self._t = config.dimension_n, 0

    def respond(self, player_x, is_moving, W):
        self._t += 1
        w = (-0.0 if self._t % 2 else 0.0,) * self._n
        return (0.5,) + w[1:] if self._t % 3 == 0 else w


class _NaNPlayer(Player):
    """Plays 0.25 e_1 and a NaN first coordinate from round 4 on."""

    def __init__(self, config):
        self._n, self._t = config.dimension_n, 0

    def decide(self):
        return (math.nan if self._t >= 3 else 0.25,) + (0.0,) * (self._n - 1)

    def observe(self, loss_w, count):
        self._t += 1


class _NaNAdversary(Adversary):
    """Loses -e_1, and a NaN first coordinate at round 3."""

    def __init__(self, config):
        self._n, self._t = config.dimension_n, 0

    def respond(self, player_x, is_moving, W):
        self._t += 1
        return (math.nan if self._t == 3 else -1.0,) + (0.0,) * (self._n - 1)


class _StretchAdversary(Adversary):
    """Repeats a seeded random in-ball loss for a seeded stretch of 1 to 40
    rounds, and draws anew when the stretch ends or the player moves;
    ``repeats`` declares what is left of the stretch.  It finds its place in
    the stretch by W, whose values there it lists when it draws: every loss
    has a first entry of size 1/4 or more, so they differ."""

    def __init__(self, config):
        self._rng, self._n = np.random.default_rng(config.seed + 100), config.dimension_n
        self._left, self._w = {}, None   # W -> rounds left in the stretch, and its loss
        self.calls = 0

    def respond(self, player_x, is_moving, W):
        self.calls += 1
        if is_moving or W not in self._left:
            first = self._rng.uniform(0.25, 0.5) * self._rng.choice((-1.0, 1.0))
            rest = self._rng.uniform(-1.0, 1.0, self._n - 1)
            rest *= 0.8 / max(1.0, float(np.linalg.norm(rest)))   # in the L2 ball and the box
            self._w = (float(first), *rest.tolist())
            length, self._left = int(self._rng.integers(1, 41)), {}
            for j in range(length):
                self._left[W] = length - j
                W = (*map(add, W, self._w),)
        return self._w

    def repeats(self, W, w):
        return self._left[W]


CUSTOM_PLAYERS = {"ints": _IntPlayer, "signed_zero": _SignedZeroPlayer, "nan": _NaNPlayer}
CUSTOM_ADVERSARIES = {"ints": _IntAdversary, "signed_zero": _SignedZeroAdversary,
                      "nan": _NaNAdversary, "stretch": _StretchAdversary}


def _player(pid, cfg):
    if pid in CUSTOM_PLAYERS:
        return CUSTOM_PLAYERS[pid](cfg)
    return make_player(pid, cfg, PARAMS.get(pid))


def _adversary(aid, cfg):
    if aid in CUSTOM_ADVERSARIES:
        return CUSTOM_ADVERSARIES[aid](cfg)
    return make_adversary(aid, cfg)


def _outcome(engine, pid, aid, cfg):
    """A game's bytes (rounds, regret by ``float.hex``, W), or its error;
    ``None`` when the pair does not apply to the config."""
    try:
        player, adversary = _player(pid, cfg), _adversary(aid, cfg)
    except UnsupportedConfigError:
        return None
    try:
        traj = engine(player, adversary, cfg)
    except Exception as err:
        return type(err), str(err), getattr(err, "round_index", None)
    return traj.rounds.tobytes(), traj.regret.hex(), traj.cumulative_W.tobytes()


def _assert_parity(pairs, horizons=HORIZONS):
    played = 0
    for cfg in _configs(horizons):
        for pid, aid in pairs:
            ref = _outcome(reference_play_game, pid, aid, cfg)
            assert _outcome(play_game, pid, aid, cfg) == ref, (pid, aid, cfg)
            played += ref is not None
    return played


@pytest.mark.parametrize("pid", PLAYERS)
def test_play_game_equals_the_reference_loop_on_the_registries(pid):
    assert _assert_parity([(pid, aid) for aid in ADVERSARIES]) > 0


def test_play_game_equals_the_reference_loop_on_ints_signed_zeros_and_nan():
    pairs = ([(pid, aid) for pid in CUSTOM_PLAYERS for aid in (*ADVERSARIES, *CUSTOM_ADVERSARIES)]
             + [(pid, aid) for pid in PLAYERS for aid in CUSTOM_ADVERSARIES])
    assert _assert_parity(pairs, {1: (1,), 7: (1, 2, 4), 1000: (4,)}) > 0
    # the custom strategies reach what they are written for
    cfg = GameConfig(7, 2, 2)
    assert _outcome(play_game, "nan", "zero", cfg)[1].startswith("round 4: player action")
    assert _outcome(play_game, "minibatch", "nan", cfg)[1].startswith("round 3: adversary loss")
    assert type(_outcome(play_game, "signed_zero", "signed_zero", cfg)[0]) is bytes


def test_play_game_equals_the_reference_loop_across_row_chunks():
    # horizons beyond the T <= 1000 reference cells, where play_game's rows
    # are runs that from_columns repeats into thousands of rounds
    pairs = [("minibatch", "stopping"), ("minibatch", "product"), ("random_switch", "orthogonal"),
             ("ints", "ints"), ("signed_zero", "signed_zero"), ("constant", "sign")]
    assert _assert_parity(pairs, {1024: (4,), 2049: (16,)}) > 0


def test_registered_players_hold_honestly_against_declared_stretches():
    # the stretch adversary cuts the players' holds at seeded rounds, so runs
    # of every length meet add_repeated's sum and the columns' np.repeat
    assert _assert_parity([(pid, "stretch") for pid in PLAYERS]) > 0
    cfg = GameConfig(1000, 4, 3, seed=7)
    adversary = _StretchAdversary(cfg)
    play_game(make_player("constant", cfg), adversary, cfg)
    assert 1000 / 40 <= adversary.calls < 1000 / 10   # runs, not rounds


def test_play_game_equals_the_reference_loop_on_the_onedim_verify_cells():
    # bounds.onedim_lower's T = 10^4 games: its five players against stopping
    for K in (1, 2, 4, 16, 100):
        for pid, seed in (("constant", 0), ("minibatch", 0),
                          *(("random_switch", s) for s in range(3))):
            cfg = GameConfig(10_000, K, 1, 2.0, seed)
            ref = _outcome(reference_play_game, pid, "stopping", cfg)
            assert _outcome(play_game, pid, "stopping", cfg) == ref, (pid, cfg)


class _Stretches(Adversary):
    """Replays 1-d stretches ``(loss, length)`` of nonzero losses in order and
    declares what is left of the current one.  W moves strictly within a
    stretch, so the W that ``respond`` gets places it there; a W it did not
    list starts the next stretch."""

    def __init__(self, stretches):
        self._stretches, self._left = iter(stretches), {}

    def respond(self, player_x, is_moving, W):
        if W not in self._left:
            w, length = next(self._stretches)
            self._w, self._left = (w,), {}
            for j in range(length):
                self._left[W] = length - j
                W = (W[0] + w,)
        return self._w

    def repeats(self, W, w):
        return self._left[W]


def _walk_to_thresholds(policy, T, sign, step, creep):
    """Losses, one per round, that walk the fugal player's block sum to each
    threshold on one side, T m_plus above or -T m_minus below, by losses of
    size ``step`` and one piece that leaves N whole steps to go: exactly N
    units for a unit step, and N + N (step - 1) / 2 for a longer step, so
    that a hold one round too long, or one that takes a loss for at most 1,
    crosses the threshold inside its run.  Each block starts with a quarter
    of its steps, which extend the last block's stretch; with ``creep`` the
    last unit goes in 1/16 steps instead.  The sum is added in round order,
    as the player adds it, so each block ends where the player moves."""
    losses, row = [], 0
    while len(losses) < T and row < 2 ** (policy.budget_K - 1) - 1:
        d = T * policy.nodes.item(row, 1 if sign > 0 else 2)
        whole = math.floor(d)
        sizes, b = [], 0.0
        for _ in range(whole // 4):
            sizes.append(step)
            b += step
        piece = d - whole + whole // 4 - (whole - whole // 4) * (step - 1) / 2 - b
        if piece:
            sizes.append(piece)
            b += piece
        while b < d:
            sizes.append(1 / 16 if creep and d - b <= 1.0 else step)
            b += sizes[-1]
        losses += [sign * size for size in sizes]
        row = fe.child_row(row, sign)
    return (losses + [sign * step] * T)[:T]


@pytest.mark.parametrize("T", [1000, 10_000])
@pytest.mark.parametrize("K", [2, 3, 4, 8])
def test_fugal_holds_honestly_at_the_balls_edge(T, K):
    # the fugal hold bounds each loss by 1 + BALL_SLACK, the ball's edge: the
    # walks cross each threshold in a run the hold must cut, or creep up on
    # it, and random stretches of +-(1 + BALL_SLACK) end the holds anywhere
    cfg = GameConfig(T, K, 1)
    policy = FugalPlayer(cfg, resolution=200).policy
    edge = 1.0 + BALL_SLACK
    rng = np.random.default_rng(T + K)
    walks = [_walk_to_thresholds(policy, T, sign, step, creep)
             for sign, step in ((1, 1.0), (-1, edge)) for creep in (False, True)]
    signs = rng.choice((-edge, edge), T)
    lengths = rng.integers(1, max(2, T // K), T).tolist()
    walks.append([w for w, n in zip(signs.tolist(), lengths) for _ in range(n)][:T])
    for i, losses in enumerate(walks):
        stretches = [(w, len(list(run))) for w, run in groupby(losses)]
        ref = reference_play_game(FugalPlayer(cfg, resolution=200), _Stretches(stretches), cfg)
        traj = play_game(FugalPlayer(cfg, resolution=200), _Stretches(stretches), cfg)
        assert traj.rounds.tobytes() == ref.rounds.tobytes(), (i, T, K)
        assert traj.regret.hex() == ref.regret.hex()
        if i < 4:   # the walks reach every threshold
            assert traj.switch_count == K - 1, (i, T, K)


def _stepped_repeats(adversary, x, W, T):
    """The loss ``respond`` gives with x held from W, and the rounds (at most
    T) it gives it again, W summed round by round as ``play_game`` sums it."""
    w, k = adversary.respond(x, True, W), 1
    while k < T:
        W = (*map(add, W, w),)
        if adversary.respond(x, False, W) != w:
            break
        k += 1
    return w, k


def _product(T, K, n):
    return ProductAdversary(GameConfig(T, K, n, math.inf))


@pytest.mark.parametrize("T, K, x, W, runs", [
    (100, 4, (0.3,), (0.0,), 50),           # threshold 50.0, an integer
    (100, 2, (0.0,), (0.0,), 71),           # threshold 70.71...
    (100, 2, (-0.5,), (10.0,), 81),         # down from W = 10 to -71
    (100, 4, (0.5,), (-10.0,), 60),         # W < 0 moving up through 0
    (100, 4, (0.5,), (-50.0,), 100),        # frozen: the loss stays 0
    (100, 4, (0.2, -0.9, 0.0), (45.0, 3.0, -49.0), 1),
])
def test_product_repeats_equals_stepping_respond(T, K, x, W, runs):
    adversary = _product(T, K, len(x))
    w, k = _stepped_repeats(adversary, x, W, T)
    assert adversary.repeats(W, w) == k == runs


def test_product_repeats_follows_coordinates_that_stop_at_different_rounds():
    # n = 3 with x held: each run ends where one coordinate stops, the last
    # run is all zeros, and repeats meets stepping at every run
    T, K = 1000, 16
    adversary, x, W = _product(T, K, 3), (0.1, -0.2, 0.05), (120.0, -3.0, -200.0)
    t, runs = 1, []
    while t <= T:
        w, k = _stepped_repeats(adversary, x, W, T - t + 1)
        assert min(adversary.repeats(W, w), T - t + 1) == k
        for _ in range(k):
            W = (*map(add, W, w),)
        runs.append((w, k))
        t += k
    # threshold 250: coordinate 2 stops after 50 rounds, 0 after 130, 1 after 247
    assert runs == [((1.0, -1.0, -1.0), 50), ((1.0, -1.0, 0.0), 80), ((0.0, -1.0, 0.0), 117),
                    ((0.0, 0.0, 0.0), 753)]


def test_product_repeats_equals_stepping_respond_on_random_states():
    rng = np.random.default_rng(5)
    for T, K, n in ((100, 4, 1), (100, 2, 2), (997, 7, 3), (10_000, 16, 1), (64, 64, 5)):
        adversary = _product(T, K, n)
        bound = math.ceil(T / math.sqrt(K))
        for _ in range(40):
            x = tuple(rng.uniform(-1.0, 1.0, n).tolist())
            W = tuple(float(v) for v in rng.integers(-bound, bound + 1, n))
            w, k = _stepped_repeats(adversary, x, W, T)
            assert min(adversary.repeats(W, w), T) == k, (T, K, x, W)


def _is_floats(v, n):
    return type(v) is tuple and len(v) == n and all(type(e) is float for e in v)


def test_registered_strategies_speak_tuples_of_floats():
    # every player's decide and every adversary's respond returns a tuple of
    # n Python floats, which the engine compares, sums and stores without
    # NumPy.  The engine decides, responds and observes once per run, and the
    # runs' counts sum to T; hold rebinds no attribute of the player
    played = 0
    for cfg in _configs({7: (1, 2, 4)}):
        n = cfg.dimension_n
        for pid in PLAYERS:
            for aid in ADVERSARIES:
                try:
                    player, adversary = _player(pid, cfg), _adversary(aid, cfg)
                except UnsupportedConfigError:
                    continue
                decide, respond, seen = player.decide, adversary.respond, []
                hold, observe, counts = player.hold, player.observe, []
                player.decide = lambda: seen.append(decide()) or seen[-1]
                adversary.respond = lambda x, m, W: seen.append(respond(x, m, W)) or seen[-1]
                player.observe = lambda w, c: counts.append(c) or observe(w, c)

                def held():
                    before = dict(vars(player))
                    rounds = hold()
                    assert vars(player).keys() == before.keys()
                    assert all(vars(player)[k] is v for k, v in before.items()), (pid, cfg)
                    return rounds

                player.hold = held
                play_game(player, adversary, cfg)
                assert len(seen) == 2 * len(counts) and sum(counts) == cfg.horizon_T
                assert all(_is_floats(v, n) for v in seen), (pid, aid, cfg, seen)
                played += 1
    assert played > 100


# ------------------------------------------------ tuple arithmetic against NumPy

#: signed zeros, NaN, infinities, integers at and past 2^53, huge and tiny values
_SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 2.0 ** 53 - 1, 2.0 ** 53,
            2.0 ** 53 + 2, -(2.0 ** 52), 1e300, -1e200, 5e-324, 1.0 + BALL_SLACK)

#: run lengths: one round, two, and a long run
_COUNTS = (1, 2, 10_000)


def _integer(rng, count):
    """An integer-valued float: small, or at or just past the guard
    ``max|.| * (count + 1) < 2^53`` of add_repeated's exact sum."""
    inside = (2 ** 53 - 1) // (count + 1)
    value = (int(rng.integers(-5, 6)), inside, inside + 1, 0)[rng.integers(4)]
    return float(value) * (-1.0, 1.0)[rng.integers(2)]


def _entry(rng, count, integers):
    if integers:
        return _integer(rng, count)
    kind = rng.integers(5)
    return (float(rng.choice(_SPECIAL)) if kind == 0 else _integer(rng, count) if kind == 1
            else float(rng.normal() * 10.0 ** rng.integers(-300, 300)) if kind == 2
            else float(rng.uniform(-1.5, 1.5)))


def _vector(rng, n, count, integers=False):
    return tuple(_entry(rng, count, integers) for _ in range(n))


def _bits(v):
    assert type(v) is tuple and all(type(a) is float for a in v), v
    return struct.pack(f"{len(v)}d", *v)


def _near_the_edge(rng, n, p):
    """A vector on the ball's edge, moved out or in by a few BALL_SLACKs."""
    u = rng.normal(size=n)
    u /= np.linalg.norm(u) if p == 2 else np.abs(u).max()
    return tuple((u * (1.0 + BALL_SLACK * rng.choice((-1.0, 0.0, 0.5, 1.0, 1.5, 2.0)))).tolist())


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_tuple_arithmetic_matches_numpy_bit_for_bit(n, p):
    # add_repeated, the mini-batch epoch step with project_to_ball, and
    # outside_ball against their NumPy forms, 2000 draws each
    rng = np.random.default_rng(n * 10 + (p == 2))
    with np.errstate(over="ignore", invalid="ignore"):   # both sides overflow in np.dot
        _draw_and_compare(rng, n, p)


def _draw_and_compare(rng, n, p):
    for i in range(2000):
        count = _COUNTS[i % 3]
        W, w = _vector(rng, n, count, i % 2 == 0), _vector(rng, n, count, i % 4 == 0)
        assert _bits(add_repeated(W, w, count)) == _bits(reference_add_repeated(W, w, count)), \
            (W, w, count)

        v = _near_the_edge(rng, n, p) if i % 2 else _vector(rng, n, 1)
        assert outside_ball(v, p) is reference_outside_ball(v, p), v

        # an epoch of `length` rounds ends with this run of `count` rounds;
        # a step of 1e200 overflows x * x
        length = count + int(rng.integers(0, 3))
        step = float(rng.choice((2.0 / math.sqrt(2.0), 1.0, 0.37, 1e200)))
        player = MinibatchPlayer(GameConfig(2 * length, 2, n, p), step_size=step)
        point, gradient = _vector(rng, n, count), _vector(rng, n, count, i % 2 == 0)
        player.current_point, player.accumulated_gradient = point, gradient
        player._rounds_seen = length - count
        player.observe(w, count)
        ref = reference_epoch_step(point, reference_add_repeated(gradient, w, count), step,
                                   length, p)
        assert _bits(player.current_point) == _bits(ref), (point, gradient, w, count, step)
        assert player.accumulated_gradient == (0.0,) * n


def test_add_repeated_sums_integers_exactly_on_both_sides_of_the_guard():
    # the shortcut's result, and the same sum past the guard by np.add.accumulate
    assert add_repeated((2.0,), (-1.0,), 2) == (0.0,)
    assert _bits(add_repeated((-0.0, -0.0), (-0.0, 0.0), 3)) == _bits((-0.0, 0.0))
    for count in _COUNTS[1:]:
        inside = float((2 ** 53 - 1) // (count + 1))
        for m in (inside, inside + 1.0):
            assert add_repeated((m,), (-m,), count) == (m - count * m,)
    big = (2.0 ** 53 - 1, 1.0)   # past the guard, the sums round
    assert add_repeated(big, (3.0, 1.0), 2) == reference_add_repeated(big, (3.0, 1.0), 2)


def _lazy_cells():
    """The reference cells: every horizon above, the 1024- and 2049-round
    chunks, and bounds.onedim_lower's T = 10^4 games."""
    pairs = [("minibatch", "stopping"), ("minibatch", "product"), ("random_switch", "orthogonal"),
             ("constant", "sign"), ("fugal", "stopping"), ("ints", "ints"),
             ("signed_zero", "signed_zero"), ("minibatch", "stretch")]
    for horizons in (HORIZONS, {1024: (4,), 2049: (16,)}):
        for cfg in _configs(horizons):
            yield from ((pid, aid, cfg) for pid, aid in pairs)
    for K in (1, 4, 100):
        for pid in ("minibatch", "random_switch"):
            yield pid, "stopping", GameConfig(10_000, K, 1, 2.0, K)


def test_rounds_are_built_on_first_read_and_equal_the_eager_build():
    played = 0
    for pid, aid, cfg in _lazy_cells():
        try:
            traj = play_game(_player(pid, cfg), _adversary(aid, cfg), cfg)
            ref = reference_play_game(_player(pid, cfg), _adversary(aid, cfg), cfg)
        except (UnsupportedConfigError, BudgetViolationError):   # no game, or no trajectory
            continue
        assert "rounds" not in vars(traj)
        rounds = eager_rounds(cfg, *ref.runs[:2])
        assert traj.block_lengths() == eager_block_lengths(rounds), (pid, aid, cfg)
        assert "rounds" not in vars(traj)
        assert traj.rounds.tobytes() == rounds.tobytes(), (pid, aid, cfg)
        assert traj.rounds is traj.rounds and not traj.rounds.flags.writeable
        played += 1
    assert played > 100
