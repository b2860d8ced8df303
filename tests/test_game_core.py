import math

import numpy as np
import pytest

from switchlab.adversaries import Adversary, ConstantAdversary, SignAdversary, make_adversary
from switchlab.errors import BudgetViolationError
from switchlab.game_core import (GameConfig, Trajectory, dual_norm, play_game,
                                 worst_case_sign_regret)
from switchlab.players import ConstantPlayer, MinibatchPlayer, Player, make_player


def test_dual_norm_examples():
    assert dual_norm(np.array([3.0, 4.0]), 2) == pytest.approx(5.0)
    assert dual_norm(np.array([1.0, -2.0]), math.inf) == pytest.approx(3.0)
    assert dual_norm(np.zeros(3), 2) == 0.0
    assert dual_norm(np.zeros(3), math.inf) == 0.0


def test_dual_norm_matches_sup_oracle():
    # sup over the unit ball of w.x, evaluated at the analytic maximizer
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rng.normal(size=rng.integers(1, 7))
        x2 = w / np.linalg.norm(w)
        assert dual_norm(w, 2) == pytest.approx(float(np.dot(w, x2)), abs=1e-12)
        xi = np.sign(w)
        assert dual_norm(w, math.inf) == pytest.approx(float(np.dot(w, xi)), abs=1e-12)


def test_dual_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        dual_norm(np.array([np.inf]), 2)
    with pytest.raises(ValueError):
        dual_norm(np.array([1.0]), 3)


@pytest.mark.parametrize("field", ["horizon_T", "budget_K", "dimension_n", "seed"])
def test_game_config_rejects_a_non_int_field(field):
    # run counts are ints: a float, a bool or a NumPy integer is refused
    good = {"horizon_T": 10, "budget_K": 2, "dimension_n": 1, "seed": 1}
    assert getattr(GameConfig(**dict(good, **{field: 2})), field) == 2
    for bad in (2.0, 2.5, True, np.int64(2)):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            GameConfig(**dict(good, **{field: bad}))


def test_linear_regret_examples():
    t1 = Trajectory.from_columns(GameConfig(1, 1, 1), [0.0], [1.0])
    assert t1.regret == pytest.approx(1.0)

    t2 = Trajectory.from_columns(GameConfig(4, 2, 1), [0.0, 0.0, -1.0, -1.0],
                                 [1.0, 1.0, 1.0, 1.0])
    assert t2.regret == pytest.approx(2.0)

    t3 = Trajectory.from_columns(GameConfig(2, 2, 2), [[1.0, 0.0], [1.0, 0.0]],
                                 [[0.0, 1.0], [0.0, 1.0]])
    assert t3.regret == pytest.approx(2.0)
    assert t3.rounds["is_moving"].tolist() == [True, False]


def _switch_count(n, actions):
    """The switch count from_columns derives for these action rows, with a
    budget large enough for any of them and zero losses."""
    cfg = GameConfig(len(actions), len(actions), n)
    return Trajectory.from_columns(cfg, actions, [[0.0] * n] * len(actions)).switch_count


def test_count_switches_examples():
    v = [0.3, -0.1]
    assert _switch_count(2, [v, list(v), list(v)]) == 0
    assert _switch_count(1, [0.1, -0.2, -0.2, 0.3]) == 2
    assert _switch_count(2, [v]) == 0   # a single row never moves


def test_count_switches_empty_rejected():
    with pytest.raises(ValueError, match="shape"):
        Trajectory.from_columns(GameConfig(1, 1, 1), [], [])


def test_count_switches_exact_equality_no_tolerance():
    # switches by exact vector inequality: one ulp-scale step moves,
    # and -0.0 equals 0.0
    assert _switch_count(1, [0.5, 0.5 + 1e-15]) == 1
    assert _switch_count(1, [0.0, -0.0]) == 0
    assert _switch_count(2, [[1.0, 0.0], [1.0, -0.0]]) == 0


def test_over_budget_columns_raise_at_switch_number_k():
    # the round of switch number K, counted in rounds when rows are held
    for T, rows, counts, round_index in ((3, [0.0, 1.0, 0.0], None, 3),
                                         (5, [0, 1, 0], [2, 1, 2], 4)):
        with pytest.raises(BudgetViolationError,
                           match=f"^round {round_index}: switch number 2 with budget K=2$") as err:
            Trajectory.from_columns(GameConfig(T, 2, 1), rows, [1.0] * len(rows), counts)
        assert err.value.round_index == round_index


def test_from_columns_raises_what_play_game_raises():
    # a scripted player over its budget: the game and its recorded columns
    # fail at the same round with the same message
    script = [0.0, 0.0, 0.5, 0.5, -0.5, 0.25, 0.25]
    for K, round_index in ((1, 3), (2, 5), (3, 6)):
        cfg = GameConfig(len(script), K, 1)
        with pytest.raises(BudgetViolationError) as game:
            play_game(_Scripted(script), ConstantAdversary(cfg, w=1.0), cfg)
        with pytest.raises(BudgetViolationError) as columns:
            Trajectory.from_columns(cfg, script, [1.0] * len(script))
        assert game.value.round_index == columns.value.round_index == round_index
        assert str(game.value) == str(columns.value)


def test_from_columns_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        Trajectory.from_columns(GameConfig(3, 2, 1), [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        Trajectory.from_columns(GameConfig(2, 2, 2), [[0.0, 1.0], [0.0, 1.0]],
                                [1.0, 1.0])


def _random_runs(seed, T, n):
    """Seeded rows of actions and losses with run lengths summing to T.  The
    first rows put signed zeros on either side of a run boundary (equal
    actions, so no move) and hold that action across a change of loss."""
    rng = np.random.default_rng(seed)
    zero, minus_zero = (0.0,) * n, (-0.0,) * n
    xs, ws, counts = [zero, minus_zero, minus_zero], [minus_zero, zero, (0.5,) * n], [3, 1, 2]
    while sum(counts) < T:
        xs.append(tuple(rng.uniform(-1, 1, n) / math.sqrt(n)) if rng.random() < 0.7 else xs[-1])
        ws.append(tuple(rng.uniform(-1, 1, n) / math.sqrt(n)))
        counts.append(min(int(rng.integers(1, 30)), T - sum(counts)))
    return xs, ws, counts


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("p", [2.0, math.inf])
def test_from_columns_with_counts_equals_the_expanded_columns(n, p):
    T = 600
    cfg = GameConfig(T, T, n, p)   # K = T: every sequence is feasible
    for seed in range(5):
        xs, ws, counts = _random_runs(seed, T, n)
        runs = Trajectory.from_columns(cfg, xs, ws, counts)
        rounds = Trajectory.from_columns(cfg, np.repeat(xs, counts, axis=0),
                                         np.repeat(ws, counts, axis=0))
        assert runs.rounds.tobytes() == rounds.rounds.tobytes()
        assert runs.regret.hex() == rounds.regret.hex()
        assert runs.cumulative_W.tobytes() == rounds.cumulative_W.tobytes()
        assert runs.switch_count == rounds.switch_count
        assert not runs.rounds["is_moving"][3:6].any()   # the signed zeros, then the hold


@pytest.mark.parametrize("counts", [[1, 1], [2, 2], [3, 0], [4, -1], [2.0, 1], [3], [1, 1, 1]])
def test_from_columns_rejects_counts_that_do_not_give_the_rounds(counts):
    # two rows at T = 3: a sum other than T, a count of 0, a negative count, a
    # count that is not an int, or one count too few or too many
    with pytest.raises(ValueError, match="shape"):
        Trajectory.from_columns(GameConfig(3, 2, 1), [0.0, 1.0], [1.0, 1.0], counts)


def test_play_game_hands_from_columns_one_row_per_run(monkeypatch):
    rows = []
    build = Trajectory.from_columns.__func__

    def spy(cls, config, actions, losses, counts=None):
        rows.append((len(actions), counts))
        return build(cls, config, actions, losses, counts)

    monkeypatch.setattr(Trajectory, "from_columns", classmethod(spy))
    cfg = GameConfig(10_000, 4, 1)
    traj = play_game(make_player("constant", cfg), make_adversary("zero", cfg), cfg)
    assert rows == [(1, [10_000])]
    assert len(traj.rounds) == 10_000 and traj.regret == 0.0


def test_play_game_constant_vs_sign():
    cfg = GameConfig(3, 2, 1)
    traj = play_game(ConstantPlayer(cfg), SignAdversary(cfg), cfg)
    assert traj.regret == pytest.approx(3.0)
    assert traj.switch_count == 0


def test_play_game_halfsplit_vs_ones():
    # the half split: unit-step mini-batching at K = 2
    cfg = GameConfig(4, 2, 1)
    traj = play_game(MinibatchPlayer(cfg, step_size=1.0), ConstantAdversary(cfg, w=1.0), cfg)
    assert traj.regret == pytest.approx(2.0)


def test_play_game_zero_adversary_zero_regret():
    cfg = GameConfig(6, 3, 2)
    traj = play_game(ConstantPlayer(cfg, [0.6, 0.0]), ConstantAdversary(cfg), cfg)
    assert traj.regret == pytest.approx(0.0)


class _RecordsW(Adversary):
    """Plays random losses in the unit ball and records the W and the
    moving flag it is given."""

    def __init__(self, n, seed):
        self._rng = np.random.default_rng(seed)
        self._n = n
        self.seen = []

    def respond(self, player_x, is_moving, W):
        self.seen.append((W, is_moving))
        w = self._rng.uniform(-1.0, 1.0, self._n)
        return tuple((w / max(1.0, float(np.linalg.norm(w)))).tolist())


class _Scripted(Player):
    """Plays a script of actions: scalars are 1-d actions, rows are tuples."""

    def __init__(self, xs):
        self._xs = iter(xs)

    def decide(self):
        x = next(self._xs)
        return tuple(x) if isinstance(x, (list, tuple)) else (x,)


def test_play_game_hands_the_adversary_the_loss_sum():
    # at round t the adversary gets the sum of rounds 1..t-1, bit for bit
    # the sequential sum the trajectory stores, as an immutable tuple of
    # floats; its moving flag is the trajectory's (-0.0 equals 0.0, one ulp
    # moves)
    up = float(np.nextafter(0.5, 1.0))
    signed = [0.0, -0.0, 0.0, 0.5, up, up, -0.0]
    for n, T, K, player in ((1, 1, 1, "random_switch"), (1, 30, 4, "random_switch"),
                            (3, 40, 4, "random_switch"), (1, 7, 4, signed)):
        cfg = GameConfig(T, K, n, seed=n)
        adversary = _RecordsW(n, seed=T)
        player = _Scripted(player) if isinstance(player, list) else make_player(player, cfg)
        traj = play_game(player, adversary, cfg)
        sums = np.cumsum(traj.rounds["loss_w"], axis=0)
        assert len(adversary.seen) == T
        for t, (W, _) in enumerate(adversary.seen, start=1):
            assert type(W) is tuple and all(type(v) is float for v in W), t
            assert np.array_equal(W, sums[t - 2] if t > 1 else np.zeros(n)), t
        assert np.array_equal(sums[-1], traj.cumulative_W)
        assert [m for _, m in adversary.seen] == traj.rounds["is_moving"].tolist()
    assert traj.rounds["is_moving"].tolist() == [True, False, False, True, True, False, True]


class _Alternator(Player):
    def __init__(self):
        self._t = 0

    def decide(self):
        return (1.0 if self._t % 2 == 0 else -1.0,)

    def observe(self, loss_w, count):
        self._t += 1


def test_play_game_budget_violation_names_round():
    cfg = GameConfig(5, 2, 1)
    with pytest.raises(BudgetViolationError) as err:
        play_game(_Alternator(), ConstantAdversary(cfg, w=1.0), cfg)
    assert err.value.round_index == 3


def test_play_game_out_of_ball_action_message():
    cfg = GameConfig(3, 2, 1)

    class Big(Player):
        def decide(self):
            return (1.5,)

    with pytest.raises(ValueError, match="unit"):
        play_game(Big(), ConstantAdversary(cfg), cfg)


def test_nan_action_leaves_the_ball_at_round_one():
    # a NaN norm is not <= 1, so the ball check rejects the first NaN action,
    # before it can count as a move (NaN never equals NaN)
    for K in (2, 3):
        cfg = GameConfig(3, K, 1)
        with pytest.raises(ValueError, match="round 1: player action leaves"):
            play_game(_Scripted([math.nan] * 3), ConstantAdversary(cfg, w=1.0), cfg)


def test_nan_loss_leaves_the_ball():
    class NaNLoss(Adversary):
        def respond(self, player_x, is_moving, W):
            return (0.0, math.nan)

    for p in (2.0, math.inf):
        cfg = GameConfig(3, 2, 2, p)
        with pytest.raises(ValueError, match="round 1: adversary loss leaves"):
            play_game(ConstantPlayer(cfg), NaNLoss(), cfg)


def test_nan_constant_strategies_are_rejected():
    for n, p in ((1, 2.0), (2, 2.0), (2, math.inf)):
        cfg = GameConfig(3, 2, n, p)
        with pytest.raises(ValueError, match="outside the unit ball"):
            ConstantPlayer(cfg, [math.nan] * n)
        with pytest.raises(ValueError, match="leaves the adversary ball"):
            ConstantAdversary(cfg, w=[math.nan] + [0.0] * (n - 1))


class _ScriptedLoss(Adversary):
    def __init__(self, ws):
        self._ws = iter(ws)

    def respond(self, player_x, is_moving, W):
        return tuple(next(self._ws))


def test_repeated_action_then_leaving_the_ball_is_caught():
    # an action is ball-checked when it changes: a repeat passed already,
    # but the first changed action is checked at its own round
    cfg = GameConfig(6, 3, 1)
    with pytest.raises(ValueError, match="round 4: player action leaves"):
        play_game(_Scripted([0.0, 0.0, 0.0, 1.5, 1.5, 1.5]), ConstantAdversary(cfg, w=1.0), cfg)


def test_repeated_action_then_nan_is_caught():
    # NaN equals nothing, so it is checked even right after a repeat
    for K in (2, 3):
        cfg = GameConfig(5, K, 1)
        with pytest.raises(ValueError, match="round 3: player action leaves"):
            play_game(_Scripted([0.2, 0.2, math.nan, math.nan, 0.2]),
                      ConstantAdversary(cfg, w=1.0), cfg)


@pytest.mark.parametrize("p,inside,outside", [(2.0, [0.6, 0.8], [0.8, 0.8]),
                                              (math.inf, [1.0, -1.0], [1.5, 0.0])])
def test_repeated_loss_then_leaving_the_ball_is_caught(p, inside, outside):
    cfg = GameConfig(6, 2, 2, p)
    with pytest.raises(ValueError, match="round 4: adversary loss leaves"):
        play_game(ConstantPlayer(cfg), _ScriptedLoss([inside] * 3 + [outside] * 3), cfg)


@pytest.mark.parametrize("n", [1, 3])
def test_wrong_length_action_or_loss_names_the_round(n):
    # checked when it changes: a short or long tuple after repeats of a good one
    cfg = GameConfig(5, 2, n)
    good, long, short = (0.0,) * n, (0.0,) * (n + 1), (0.0,) * (n - 1)
    for bad in (long, short):
        with pytest.raises(ValueError, match=f"^round 3: player action .* n = {n}: "):
            play_game(_Scripted([good, good, bad, bad, good]), ConstantAdversary(cfg), cfg)
        with pytest.raises(ValueError, match=f"^round 4: adversary loss .* n = {n}: "):
            play_game(ConstantPlayer(cfg), _ScriptedLoss([good] * 3 + [bad, good]), cfg)


class _Holder(Player):
    """Plays 0 and says it holds for ``rounds`` rounds."""

    def __init__(self, rounds):
        self._rounds = rounds

    def decide(self):
        return (0.0,)

    def hold(self):
        return self._rounds

    def observe(self, loss_w, count):
        pass


class _Repeater(ConstantAdversary):
    """The zero loss, said to repeat for ``rounds`` rounds."""

    def __init__(self, config, rounds):
        super().__init__(config)
        self._rounds = rounds

    def repeats(self, W, w):
        return self._rounds


@pytest.mark.parametrize("rounds", [0, -2, 2.0, None])
def test_a_hold_or_repeats_that_is_not_a_positive_int_is_named(rounds):
    # a run of no rounds would never end the game
    cfg = GameConfig(5, 2, 1)
    tail = f"must be an int >= 1, not {rounds}"
    with pytest.raises(ValueError, match=f"^round 1: player hold {tail}"):
        play_game(_Holder(rounds), ConstantAdversary(cfg), cfg)
    with pytest.raises(ValueError, match=f"^round 1: adversary repeats {tail}"):
        play_game(ConstantPlayer(cfg), _Repeater(cfg, rounds), cfg)
    # a run of one round from either side plays round by round
    assert play_game(_Holder(5), _Repeater(cfg, 1), cfg).rounds.tobytes() == \
        play_game(_Holder(1), _Repeater(cfg, 5), cfg).rounds.tobytes()


class _ArrayPlayer(Player):
    """Breaks the tuple protocol: plays (0.0,) * n, then from round
    ``from_round`` on the same point as an ndarray."""

    def __init__(self, n, from_round=1):
        self._n, self._from, self._t = n, from_round, 0

    def decide(self):
        self._t += 1
        return np.zeros(self._n) if self._t >= self._from else (0.0,) * self._n


class _ArrayLoss(Adversary):
    def __init__(self, n):
        self._n = n

    def respond(self, player_x, is_moving, W):
        return np.zeros(self._n)


@pytest.mark.parametrize("n", [1, 2])
def test_a_strategy_that_breaks_the_tuple_protocol_is_named(n):
    # an ndarray action or loss, equal to the last tuple or not, raises a
    # TypeError naming the round and the side in place of numpy's own error
    cfg = GameConfig(5, 2, n)
    for aid in ("zero", "sign") if n == 1 else ("zero",):
        for start in (1, 3):
            with pytest.raises(TypeError, match=f"^round {start}: player action must be a "
                                                f"tuple of {n} floats .*ndarray"):
                play_game(_ArrayPlayer(n, start), make_adversary(aid, cfg), cfg)
    with pytest.raises(TypeError, match=f"^round 1: adversary loss must be a tuple of {n} floats"):
        play_game(make_player("constant", cfg), _ArrayLoss(n), cfg)


def test_the_sign_search_names_a_player_that_breaks_the_tuple_protocol():
    # the search is 1-d, so a 2-element action is one from round 1
    cfg = GameConfig(4, 2, 1)
    for n, start in ((1, 1), (1, 2), (2, 1)):
        with pytest.raises(TypeError, match=f"^round {start}: player action must be a tuple"):
            worst_case_sign_regret(lambda: _ArrayPlayer(n, start), cfg)


def test_signed_zero_alternation_neither_moves_nor_leaves_the_ball():
    zeros = [0.0, -0.0] * 4
    for n, p in ((1, 2.0), (2, 2.0), (2, math.inf)):
        cfg = GameConfig(len(zeros), 1, n, p)
        column = [[z] * n for z in zeros]
        traj = play_game(_Scripted(column), _ScriptedLoss(column), cfg)
        assert traj.switch_count == 0
        assert traj.rounds["is_moving"].tolist() == [True] + [False] * (len(zeros) - 1)
        assert traj.regret == 0.0


def _loop_regret(traj):
    """The payoff as the per-row sequential ``np.dot`` loop, plus the dual norm."""
    payoff = 0.0
    for w, x in zip(traj.rounds["loss_w"], traj.rounds["action_x"]):
        payoff += float(np.dot(w, x))
    return payoff + dual_norm(traj.cumulative_W, traj.config.player_norm_p)


def test_batched_payoff_equals_the_sequential_dot_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    T = 1000
    for n in (1, 2, 3, 5):
        for p in (2.0, math.inf):
            cfg = GameConfig(T, T, n, p)    # K = T: every sequence is feasible
            columns = {"random": lambda: rng.uniform(-1, 1, (T, n)) / math.sqrt(n),
                       "sign": lambda: rng.choice([-1.0, 1.0], (T, n)),
                       "signed zero": lambda: rng.choice([-0.0, 0.0], (T, n)),
                       "zero": lambda: np.zeros((T, n))}
            for x_kind, xs in columns.items():
                for w_kind, ws in columns.items():
                    traj = Trajectory.from_columns(cfg, xs(), ws())
                    assert traj.regret.hex() == _loop_regret(traj).hex(), (n, p, x_kind, w_kind)


def test_trajectory_regret_recompute_and_moving_flags():
    cfg = GameConfig(20, 4, 1, seed=3)
    rng = np.random.default_rng(5)
    xs, ws = [], []
    x = 0.0
    for t in range(20):
        if t in (5, 11, 17):
            x = float(rng.uniform(-1, 1))
        xs.append(x)
        ws.append(float(rng.uniform(-1, 1)))
    traj = Trajectory.from_columns(cfg, xs, ws)
    reference = sum(w * x for w, x in zip(ws, xs)) + abs(sum(ws))
    assert traj.regret == pytest.approx(reference, abs=1e-12)
    assert np.flatnonzero(traj.rounds["is_moving"]).tolist() == [0, 5, 11, 17]
    assert traj.switch_count == 3
    assert traj.block_lengths() == [5, 6, 6, 3]


def test_trajectory_is_read_only_and_blocks_cover_the_horizon():
    cfg = GameConfig(300, 8, 3, seed=2)
    traj = play_game(make_player("random_switch", cfg), make_adversary("orthogonal", cfg), cfg)
    assert len(traj.rounds) == 300
    assert traj.rounds["action_x"].shape == (300, 3)
    with pytest.raises(ValueError):
        traj.rounds["loss_w"][0] = 0.0
    with pytest.raises(ValueError):
        traj.cumulative_W[0] = 0.0
    assert traj.cumulative_W.base is None   # a copy, not a view of every running sum
    blocks = traj.block_lengths()
    assert sum(blocks) == 300
    assert len(blocks) == traj.switch_count + 1 == 8
    actions = traj.rounds["action_x"]
    assert traj.switch_count == sum((a != b).any() for a, b in zip(actions, actions[1:]))


def test_zero_loss_padding_preserves_regret():
    xs, ws = [0.0, 0.0, 0.5, 0.5, 0.5, 0.5], [1, -1, 1, 1, 0.5, -0.2]
    traj = Trajectory.from_columns(GameConfig(6, 3, 1), xs, ws)
    traj2 = Trajectory.from_columns(GameConfig(9, 3, 1), xs + [0.5] * 3, ws + [0.0] * 3)
    assert traj2.regret == pytest.approx(traj.regret, abs=1e-12)
    assert traj2.switch_count == traj.switch_count


def test_config_validation():
    with pytest.raises(ValueError):
        GameConfig(3, 4, 1)           # K > T
    with pytest.raises(ValueError):
        GameConfig(0, 1, 1)
    with pytest.raises(ValueError):
        GameConfig(3, 0, 1)
    with pytest.raises(ValueError):
        GameConfig(3, 2, 0)
    with pytest.raises(ValueError):
        GameConfig(3, 2, 1, player_norm_p=1.0)
    with pytest.raises(ValueError):
        GameConfig(3, 2, 1, seed=-1)
    assert GameConfig(3, 2, 1, player_norm_p=math.inf).adversary_norm_q == math.inf
