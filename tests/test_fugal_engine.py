import itertools
import json
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from reference_engine import policy_row
from switchlab import fugal_engine as fe
from switchlab.errors import CapacityError, NumericStructureError

SQRT2 = math.sqrt(2.0)


# ------------------------------------------------------------- closed forms

def test_quadratic_floor_values():
    assert fe.quadratic_floor(2, 0.0) == pytest.approx(0.5)
    assert fe.quadratic_floor(4, 0.0) == pytest.approx(1.0 / (2.0 * SQRT2))
    assert fe.quadratic_floor(3, 1.0) == pytest.approx(1.0)
    assert fe.quadratic_floor(1, 0.37) == 1.0
    for k in range(2, 13):
        assert fe.quadratic_floor(k, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * k))
    assert fe.quadratic_floor(1, 0.0) >= 1.0 / math.sqrt(2.0)


def test_quadratic_floor_domain():
    with pytest.raises(ValueError):
        fe.quadratic_floor(2, 1.5)
    with pytest.raises(ValueError):
        fe.quadratic_floor(0, 0.0)
    with pytest.raises(ValueError):
        fe.quadratic_floor(2, math.nan)


def test_quadratic_floor_junction_continuous():
    for k in (2, 3, 7):
        cut = math.sqrt(2.0 / k)
        below = fe.quadratic_floor(k, cut - 1e-12)
        assert below == pytest.approx(cut, abs=1e-10)


def test_floor_image_values():
    assert fe.quadratic_floor_image(2, 0.0) == pytest.approx(SQRT2 - 1.0)
    assert fe.quadratic_floor_image(4, 0.0) == pytest.approx(math.sqrt(3.0) - SQRT2)
    cut4 = math.sqrt(2.0 / 4.0)
    assert fe.quadratic_floor_image(4, cut4) == pytest.approx(cut4)
    assert fe.quadratic_floor_image(4, cut4 - 1e-12) == pytest.approx(cut4, abs=1e-10)
    with pytest.raises(ValueError):
        fe.quadratic_floor_image(1, 0.0)


def test_floor_image_rejects_nan():
    with pytest.raises(ValueError):
        fe.quadratic_floor_image(3, math.nan)


def test_floor_image_interlaces_next_floor():
    zs = np.linspace(-1.0, 1.0, 3001)
    for i in range(2, 13):
        img = fe.quadratic_floor_image(i, zs)
        nxt = fe.quadratic_floor(i + 1, zs)
        assert np.all(img >= nxt - 1e-12)


def _floor_reference(k, z):
    # the scalar closed form in Python floats, as it was before it took arrays
    if k == 1:
        return 1.0
    cut = math.sqrt(2.0 / k)
    if abs(z) < cut:
        return (math.sqrt(k / 2.0) * z * z + cut) / 2.0
    return abs(z)


def _image_reference(i, z):
    cut = math.sqrt(2.0 / i)
    if abs(z) <= cut:
        rad = max(1.0 + 2.0 / i - z * z, 0.0)
        return math.sqrt(i / 2.0) * (z * z - 1.0 + math.sqrt(rad))
    return abs(z)


def test_closed_forms_on_arrays_equal_the_scalar_form_bit_for_bit():
    # 10,001 points plus +-cut for every k, and the endpoints +-1
    cuts = [s * math.sqrt(2.0 / k) for k in range(1, 14) for s in (1.0, -1.0)]
    zs = np.concatenate([np.linspace(-1.0, 1.0, 10_001), [c for c in cuts if abs(c) <= 1.0],
                         [1.0, -1.0, -0.0]])
    for k in range(1, 14):
        forms = [(fe.quadratic_floor, _floor_reference)]
        if k >= 2:
            forms.append((fe.quadratic_floor_image, _image_reference))
        for form, reference in forms:
            values = form(k, zs)
            assert type(values) is np.ndarray and values.shape == zs.shape
            expected = [reference(k, z) for z in zs.tolist()]
            assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected], (form, k)
            for z in zs[::97].tolist():   # the scalar form: a float, the same bits
                v = form(k, z)
                assert type(v) is float and v.hex() == reference(k, z).hex(), (form, k, z)


def test_closed_forms_reject_a_bad_entry_in_an_array():
    for bad in (math.nan, 1.5, -1.0 - 1e-9):
        zs = np.linspace(-1.0, 1.0, 101)
        zs[37] = bad
        with pytest.raises(ValueError, match="quadratic_floor domain"):
            fe.quadratic_floor(3, zs)
        with pytest.raises(ValueError, match="quadratic_floor_image domain"):
            fe.quadratic_floor_image(3, zs)


def test_branch_cutoffs():
    zp, zm = fe.branch_cutoffs(2, 1.0)
    assert zp == pytest.approx(-1.0)
    assert zm == pytest.approx(-1.0)
    zp, zm = fe.branch_cutoffs(2, 0.0)
    assert zp == pytest.approx(SQRT2 - 1.0)
    assert zm == pytest.approx(1.0 - SQRT2)
    rng = np.random.default_rng(0)
    for _ in range(200):
        i = int(rng.integers(2, 12))
        x = float(rng.uniform(-1, 1))
        zp, zm = fe.branch_cutoffs(i, x)
        assert zp >= zm - 1e-12
        lim = math.sqrt(2.0 / i) + 1e-12
        assert abs(zp) <= lim and abs(zm) <= lim
        zp0, zm0 = fe.branch_cutoffs(i, 0.0)
        assert zp0 == pytest.approx(-zm0)


def test_branch_cutoffs_reject_nan_and_actions_outside_ball():
    for x in (math.nan, 1.5):
        with pytest.raises(ValueError):
            fe.branch_cutoffs(3, x)


def test_crossing_action():
    for i in (2, 5, 9):
        assert fe.crossing_action(i, 0.0) == 0.0
    assert fe.crossing_action(2, 1.0) == pytest.approx(-1.0)
    assert fe.crossing_action(2, 0.5) == pytest.approx(-0.5 * math.sqrt(3.5) / SQRT2)


def test_crossing_action_rejects_nan():
    with pytest.raises(ValueError):
        fe.crossing_action(2, math.nan)


def test_one_block_value():
    assert fe.one_block_value(5.0, 0.0) == 5.0
    assert fe.one_block_value(1.0, 2.0) == 2.0
    assert fe.one_block_value(2.0, 1.0) == 2.0
    with pytest.raises(ValueError):
        fe.one_block_value(0.0, 1.0)


def test_one_block_value_rejects_nan():
    for T, Z in ((math.nan, 0.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            fe.one_block_value(T, Z)


def test_overshoot_value():
    assert fe.overshoot_value(4.0, 0.0) == pytest.approx(2.0)
    assert fe.overshoot_value(4.0, 2.0) == pytest.approx(2.5)  # 5T/8
    z = 0.3
    assert fe.overshoot_value(1.0, z) == pytest.approx((z * z + 1.0) / 2.0)
    with pytest.raises(ValueError):
        fe.overshoot_value(2.0, 2.0)


def test_overshoot_value_rejects_nan():
    with pytest.raises(ValueError):
        fe.overshoot_value(1.0, math.nan)


def test_u4_exact_constants():
    u4, z0 = fe.u4_exact()
    assert u4 == pytest.approx(0.362975, abs=1e-6)
    assert z0 == pytest.approx(0.283975, abs=1e-6)
    lhs = (z0 * z0 - 1.0 + math.sqrt(2.0 - z0 * z0)) / (1.0 + z0)
    assert lhs == pytest.approx(u4, abs=1e-12)
    # z0 really is a root of the sextic
    p = -z0 ** 6 - 4 * z0 ** 5 - 4 * z0 ** 4 + 4 * z0 ** 3 + 10 * z0 ** 2 + 4 * z0 - 2
    assert abs(p) < 1e-12


# ------------------------------------------------------------- the operator

def test_apply_to_ones_gives_parabola():
    N = 400
    ones = fe.GridFunction(N, np.ones(N + 1))
    out = fe.fugal_apply(ones)
    grid = out.grid
    assert np.allclose(out.values, (grid * grid + 1.0) / 2.0, atol=1e-9)
    assert out.values[0] == 1.0 and out.values[-1] == 1.0


def test_apply_to_u2_hits_sqrt2_minus_1():
    tables = fe.solve_tables(3, 1000)
    assert tables[2].interp(0.0) == pytest.approx(SQRT2 - 1.0, abs=1e-3)


def test_apply_rejects_function_below_absolute_value():
    N = 200
    vals = np.zeros(N + 1)
    with pytest.raises(ValueError):
        fe.fugal_apply(fe.GridFunction(N, vals))


def test_apply_matches_closed_form_on_floors():
    N = 1000
    grid = fe.make_grid(N)
    for i in (2, 3, 4):
        floor = fe.grid_of(lambda z: fe.quadratic_floor(i, z), N)
        img = fe.fugal_apply(floor)
        exact = fe.quadratic_floor_image(i, grid)
        assert float(np.max(np.abs(img.values - exact))) <= 5e-3


def test_operator_preserves_pointwise_order():
    # f <= g implies T f <= T g: the integrand multipliers 1+wz and 1+z'w
    # are nonnegative, and the floor induction T u_i >= T a_i relies on
    # exactly this order-preserving direction.
    for f, g in _random_bump_pairs(200):
        assert np.all(fe.fugal_apply(f).values <= fe.fugal_apply(g).values + 1e-9)


def test_operator_never_exceeds_input():
    # z' = z is always feasible, so the image is pointwise <= the input
    tables = fe.solve_tables(5, 500)
    for a, b in zip(tables, tables[1:]):
        assert np.all(b.values <= a.values + 1e-12)


def _reference_apply(f, x_tol=1e-10):
    """The operator as a dense node scan with a fixed-step bisection of the
    crossing in x: O(N^2) per step, kept as the reference the envelope
    implementation must reproduce."""
    N = f.resolution
    z = f.grid
    v = f.values
    if np.any(v < np.abs(z) - 1e-9):
        raise ValueError("operator input must dominate |z| pointwise")

    out = np.empty(N + 1)
    out[0] = 1.0
    out[N] = 1.0

    inv_p = 1.0 / np.maximum(1.0 + z, fe.DENOM_CLAMP)   # w = +1 denominators
    inv_m = 1.0 / np.maximum(1.0 - z, fe.DENOM_CLAMP)   # w = -1 denominators
    fp = v * inv_p
    fm = v * inv_m
    cols = np.arange(N + 1)[None, :]

    interior = np.arange(1, N)
    n_iter = int(math.ceil(math.log2(2.0 / x_tol)))
    for chunk in np.array_split(interior, max(1, interior.size // 512)):
        zc = z[chunk]
        drop_p = cols < chunk[:, None]   # nodes outside the w=+1 half-interval
        drop_m = cols > chunk[:, None]
        one_plus = 1.0 + zc
        one_minus = 1.0 - zc
        buf_p = np.empty((chunk.size, N + 1))
        buf_m = np.empty_like(buf_p)

        def branch_values(x):
            np.multiply(x[:, None], inv_p[None, :], out=buf_p)
            np.subtract(fp[None, :], buf_p, out=buf_p)
            np.copyto(buf_p, np.inf, where=drop_p)
            gp = x + one_plus * buf_p.min(axis=1)
            np.multiply(x[:, None], inv_m[None, :], out=buf_m)
            np.add(fm[None, :], buf_m, out=buf_m)
            np.copyto(buf_m, np.inf, where=drop_m)
            gm = -x + one_minus * buf_m.min(axis=1)
            return gp, gm

        lo = np.full(chunk.shape, -1.0)
        hi = np.ones(chunk.shape)
        gp, gm = branch_values(lo)
        h_lo = gp - gm
        gp, gm = branch_values(hi)
        h_hi = gp - gm
        if np.any((h_lo > 1e-9) & (h_hi < -1e-9)):
            raise fe.NumericStructureError(
                "crossing function not monotone at grid resolution "
                f"N={N}; refine the grid")
        for _ in range(n_iter):
            mid = 0.5 * (lo + hi)
            gp, gm = branch_values(mid)
            up = (gp - gm) >= 0.0
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        gp, gm = branch_values(0.5 * (lo + hi))
        out[chunk] = np.maximum(gp, gm)

    return fe.GridFunction(N, out)


def _random_bump_pairs(N):
    """Seeded pairs f <= g of inputs above |z|: |z| plus random bumps."""
    grid = fe.make_grid(N)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        bump = rng.uniform(0.0, 1.0, N + 1) * (1.0 - np.abs(grid))
        g_vals = np.abs(grid) + bump
        f_vals = np.abs(grid) + rng.uniform(0.0, 1.0, N + 1) * bump
        yield fe.GridFunction(N, f_vals), fe.GridFunction(N, g_vals)


def test_apply_matches_dense_reference():
    inputs = []
    u = fe.GridFunction(1000, np.ones(1001))
    for _ in range(7):                                   # u_1 .. u_7 at N = 1000
        inputs.append(u)
        u = fe.fugal_apply(u)
    for i in (2, 3, 4):                                  # the floors a_2 .. a_4
        inputs.append(fe.grid_of(lambda z: fe.quadratic_floor(i, z), 500))
    for f, g in _random_bump_pairs(200):
        inputs += [f, g]
    for f in inputs:
        new = fe.fugal_apply(f)
        ref = _reference_apply(f)
        assert float(np.max(np.abs(new.values - ref.values))) <= 1e-9
        assert np.all(new.values <= f.values + 1e-12)
        assert new.values[0] == 1.0 and new.values[-1] == 1.0


def _reference_hull_tree(c, s, order):
    """The sequential monotone hull sweep: one stack over all lines, popping
    while the new line's crossing with the top does not rise above the top's
    breakpoint.  Returns b, parent and the lifting table doubled
    bit_length(c.size) times."""
    cl, sl = c.tolist(), s.tolist()
    parent = list(range(c.size))
    b = [-math.inf] * c.size
    stack = []
    for j in order:
        while stack:
            top = stack[-1]
            t = (cl[j] - cl[top]) / (sl[j] - sl[top])
            if t > b[top]:
                parent[j], b[j] = top, t
                break
            stack.pop()
        stack.append(j)
    up = [np.array(parent)]
    for _ in range(c.size.bit_length()):
        up.append(up[-1][up[-1]])
    return np.array(b), up


def _hull_inputs():
    """(c, s, order) of both branch trees of u_1 .. u_32 at N = 500 and 2000
    and of the bump functions the core.invariants check applies the operator
    to at N = 200; then seeded random lines, and lines all through t = 2."""
    fs = fe.solve_tables(32, 500) + fe.solve_tables(32, 2000)
    grid = fe.make_grid(200)
    for seed in range(5):   # as verify.check_core_invariants draws them
        r = random.Random(seed)
        bump = np.array([r.random() for _ in range(201)]) * (1.0 - np.abs(grid))
        g_vals = np.abs(grid) + bump
        f_vals = np.abs(grid) + np.array([r.random() for _ in range(201)]) * bump
        fs += [fe.GridFunction(200, f_vals), fe.GridFunction(200, g_vals)]
    for f in fs:
        fp, fm, inv_p, inv_m = fe._envelopes(f)[:4]
        N = f.resolution
        yield fp, inv_p, np.arange(N, 0, -1)
        yield fm, inv_m, np.arange(N)
    rng = np.random.default_rng(5)
    s = rng.uniform(0.0, 10.0, 300)
    yield rng.uniform(-1.0, 1.0, 300), s, np.argsort(s)
    s = 0.25 * np.arange(1, 65)
    yield 3.0 + 2.0 * s, s, np.arange(64)


def _reference_active_line(b, up, nodes, t):
    """The line active at t[r] on the root path of nodes[r], by binary
    lifting over the sweep's nodes: climb to the last node with breakpoint
    >= t; its parent is active, or nodes[r] itself where b < t there."""
    cur = nodes
    for jump in reversed(up):
        nxt = jump[cur]
        cur = np.where(b[nxt] >= t, nxt, cur)
    return np.where(b[nodes] < t, nodes, up[0][cur])


def _by_line(tree, size):
    """The tree's breakpoints and parents indexed by line, as the sweep
    returns them (a line off the order is a root)."""
    b, parent = np.full(size, -math.inf), np.arange(size)
    b[tree.order], parent[tree.order] = tree.b, tree.order[tree.parent]
    return b, parent


def test_hull_tree_matches_the_sequential_sweep_bit_for_bit():
    rng = np.random.default_rng(0)
    popped = []
    for c, s, order in _hull_inputs():
        tree = fe._hull_tree(c, s, order)
        b, parent = _by_line(tree, c.size)
        b_ref, up_ref = _reference_hull_tree(c, s, order)
        assert np.array_equal(b, b_ref) and np.array_equal(parent, up_ref[0])
        finite = b[np.isfinite(b)]
        nodes = rng.choice(order, 600)
        t = np.concatenate((rng.uniform(finite.min() - 1.0, finite.max() + 1.0, 200),
                            rng.choice(finite, 200),            # exact breakpoints
                            np.repeat([-1.0, 1.0], 100)))       # the bracket's ends
        assert np.array_equal(fe._active_line(tree, nodes, t),
                              _reference_active_line(b_ref, up_ref, nodes, t))
        # lines whose predecessor in order left the envelope for them
        popped.append(int(np.sum(tree.parent[1:] != np.arange(order.size - 1))))
    assert popped[0] == 498 and popped[-1] == 62   # u_1 and the collinear star: all
    assert popped[2 * 10] == 0                       # u_11 at N = 500: a chain
    assert 0 < popped[2 * 11] < 20                   # u_12 at N = 500: a few


def test_querying_a_line_outside_the_trees_order_raises():
    # the plus tree takes lines N..1 and the minus tree 0..N-1; node 0 of
    # the one and node N of the other have no position, and no active line
    N = 200
    tree_p, tree_m = fe._envelopes(fe.solve_tables(3, N)[1])[4:]
    for tree, node in ((tree_p, 0), (tree_m, N)):
        assert tree.pos[node] == N
        with pytest.raises(IndexError):
            fe._active_line(tree, np.array([node]), np.array([0.0]))


def _u1_branches(N):
    """(c, s, order) of both branch trees of u_1, whose lines all meet at t = 1."""
    fp, fm, inv_p, inv_m = fe._envelopes(fe.GridFunction(N, np.ones(N + 1)))[:4]
    return (fp, inv_p, np.arange(N, 0, -1)), (fm, inv_m, np.arange(N))


@pytest.mark.parametrize("N", [100, 500, 2000])
@pytest.mark.parametrize("toward", [None, math.inf, -math.inf])
def test_concurrent_lines_make_the_sweeps_tree(N, toward):
    # u_1's lines all meet at t = 1: the check sets their star without a
    # walk.  With one intercept one ulp off the check fails and the walk runs.
    for c, s, order in _u1_branches(N):
        if toward is not None:
            j = order[order.size // 2]
            c = c.copy()
            c[j] = np.nextafter(c[j], toward)
        tree = fe._hull_tree(c, s, order)
        b_ref, up_ref = _reference_hull_tree(c, s, order)
        b, parent = _by_line(tree, c.size)
        assert np.array_equal(b, b_ref) and np.array_equal(parent, up_ref[0])
        assert (tree.parent == 0).all() == (toward is None)
        assert tree.up == [] or toward is not None   # a star needs no lifting level


@pytest.mark.parametrize("s", [[2.0, 17.0, 29.0], [2.0, 16.0, 20.0]])
def test_lines_through_a_point_off_by_rounding_take_the_walk(s):
    # the lines 1 + 0.1 s meet at t = 0.1, but their crossings round apart:
    # at s = 2, 17, 29 both consecutive ones to 0.1 + 1 ulp and the last
    # line's with the first to 0.1; at s = 2, 16, 20 the consecutive ones to
    # 0.1 and 0.1 - 2 ulp and that with the first to 0.1.  The check fails
    # either way, and the walk parents the last line to the first.
    s = np.array(s)
    c, order = 1.0 + 0.1 * s, np.arange(3)
    tree = fe._hull_tree(c, s, order)
    b_ref, up_ref = _reference_hull_tree(c, s, order)
    b, parent = _by_line(tree, c.size)
    assert np.array_equal(b, b_ref) and np.array_equal(parent, up_ref[0])
    assert tree.b[2] == 0.1 and list(tree.parent) == [0, 0, 0]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_apply_and_witness_on_the_smallest_grids(N):
    # branch trees of 1 to 4 lines, each a chain or a star
    grid = fe.make_grid(N)
    zs = np.linspace(-0.95, 0.95, 21)
    for v in (np.ones(N + 1), np.abs(grid) + 0.5 * (1.0 - grid * grid),
              fe.quadratic_floor(2, grid)):
        f = fe.GridFunction(N, v)
        new, ref = fe.fugal_apply(f), _reference_apply(f)
        assert float(np.max(np.abs(new.values - ref.values))) <= 1e-9
        xs, values, z_plus, z_minus = fe.operator_witness(f, zs)
        for r, z in enumerate(zs):
            # at N = 2 the two root finders can part by an ulp in x, and at
            # z = 0 the inner objective ties between nodes
            x, value, z_next = _reference_witness(f, float(z))
            assert xs[r] == pytest.approx(x, abs=1e-15)
            assert values[r] == pytest.approx(value, abs=1e-12)
            for w, mine in ((1, z_plus[r]), (-1, z_minus[r])):
                assert _objective(f, z, w, mine, x) == pytest.approx(
                    _objective(f, z, w, z_next[w], x), abs=1e-12)


def _objective(f, z, w, z_next, x):
    """The inner objective of the operator's branch w at bias z."""
    return ((1.0 + w * z) * f.interp(z_next) + x * (z_next - z)) / (1.0 + w * z_next)


def test_tables_to_k32_keep_floor_cap_order_and_symmetry():
    N = 4000
    grid = fe.make_grid(N)
    tables = fe.solve_tables(32, N)
    cap = (grid * grid + 1.0) / 2.0
    for k, u in enumerate(tables, start=1):
        floor = fe.grid_of(lambda z: fe.quadratic_floor(k, z), N).values
        assert np.all(u.values >= floor - 1e-9)
        if k >= 2:
            assert np.all(u.values <= cap + 1e-9)
        assert float(np.max(np.abs(u.values - u.values[::-1]))) <= 1e-9
        assert u.interp(0.0) * math.sqrt(2.0 * k) >= 1.0
    for a, b in zip(tables, tables[1:]):
        assert np.all(b.values <= a.values + 1e-12)


def test_solve_tables_cache_is_safe_across_threads(monkeypatch):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(fe, "_table_cache", {})
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(fe.solve_tables, 3, 400) for _ in range(4)]
                results = [fut.result(timeout=60) for fut in futures]
            cached = fe._table_cache[400]
            assert len(cached) == 3 and np.all(cached[0].values == 1.0)
            for tables in results:
                assert len(tables) == 3
                assert all(np.array_equal(t.values, c.values) for t, c in zip(tables, cached))
            assert fe.solve_tables(3, 400)[2].interp(0.0) == pytest.approx(SQRT2 - 1.0, abs=1e-3)
    finally:
        sys.setswitchinterval(interval)


def test_crossing_root_raises_where_h_falls_on_the_bracket():
    # u_2's lines at N = 100 with both slopes scaled by 10: h is then
    # positive at x = -1 and negative at x = 1 for some bias
    N = 100
    f = fe.solve_tables(2, N)[1]
    fp, fm, inv_p, inv_m, _, _ = fe._envelopes(f)
    inv_p, inv_m = 10.0 * inv_p, 10.0 * inv_m
    env = (fp, fm, inv_p, inv_m, fe._hull_tree(fp, inv_p, np.arange(N, 0, -1)),
           fe._hull_tree(fm, inv_m, np.arange(N)))
    nodes = np.arange(1, N)
    with pytest.raises(NumericStructureError, match=f"N={N}"):
        fe._crossing_root(env, f.grid[nodes], nodes, nodes)


# ------------------------------------------------------------- u_k tables

def test_solve_tables_basic_values():
    tables = fe.solve_tables(4, 1000)
    assert np.all(tables[0].values == 1.0)
    assert tables[1].interp(0.0) == pytest.approx(0.5, abs=1e-3)
    u4_exact, _ = fe.u4_exact()
    assert tables[3].interp(0.0) == pytest.approx(u4_exact, abs=2e-3)
    for t in tables:
        assert t.values[0] == 1.0 and t.values[-1] == 1.0


def test_solve_tables_validation():
    with pytest.raises(ValueError):
        fe.solve_tables(0, 500)
    with pytest.raises(ValueError):
        fe.solve_tables(2, 50)


def test_tables_even_in_z():
    for t in fe.solve_tables(4, 500):
        assert float(np.max(np.abs(t.values - t.values[::-1]))) <= 1e-6


def test_tables_monotone_in_k():
    tables = fe.solve_tables(5, 500)
    for a, b in zip(tables, tables[1:]):
        assert np.all(b.values <= a.values + 1e-6)


def test_grid_convergence_of_u3():
    # doubling the resolution cuts the max-norm error against the closed
    # form z^2 - 1 + sqrt(2 - z^2) by about 4 (linear interpolation order)
    errs = []
    for N in (250, 500, 1000):
        u3 = fe.fugal_apply(fe.fugal_apply(fe.GridFunction(N, np.ones(N + 1))))
        grid = u3.grid
        exact = np.array([z * z - 1.0 + math.sqrt(2.0 - z * z) for z in grid])
        exact[0] = exact[-1] = 1.0
        errs.append(float(np.max(np.abs(u3.values - exact))))
    assert errs[1] <= errs[0] / 2.5
    assert errs[2] <= errs[1] / 2.5
    assert errs[2] < 1e-6


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        fe.GridFunction(10, np.ones(5))
    with pytest.raises(ValueError):
        fe.GridFunction(10, np.full(11, np.nan))


@pytest.mark.parametrize("z", [1.5, -2.0, math.nan])
def test_interp_rejects_biases_off_the_domain(z):
    # u_k(z) = |z| for |z| >= 1, not the endpoint value np.interp would hold
    with pytest.raises(ValueError, match="interp domain"):
        fe.solve_tables(3, 200)[2].interp(z)


def test_interp_returns_the_endpoint_values_at_plus_minus_one():
    f = fe.GridFunction(4, np.array([1.0, 0.7, 0.5, 0.8, 0.9]))
    assert (f.interp(-1.0), f.interp(1.0), f.interp(0.25)) == (1.0, 0.9, 0.65)


# ------------------------------------------------------------- policy

def test_policy_k2_is_halfsplit_threshold():
    _, pol = fe.u_k_solve(2, 500)
    (x, m_plus, m_minus), (x_plus, *_), (x_minus, *_) = pol.nodes[:3].tolist()
    assert x == 0.0
    assert m_plus == pytest.approx(0.5, abs=1e-12)
    assert m_minus == pytest.approx(0.5, abs=1e-12)
    assert x_plus == pytest.approx(-1.0)
    assert x_minus == pytest.approx(1.0)


def test_policy_k3_first_block_fraction():
    _, pol = fe.u_k_solve(3, 1000)
    target = 1.0 - SQRT2 / 2.0
    _, m_plus, m_minus = pol.nodes[0]   # the root row
    assert m_plus == pytest.approx(target, abs=1e-3)
    assert m_minus == pytest.approx(target, abs=1e-3)


def test_policy_fractions_sum_to_one_and_actions_in_ball():
    for K in (2, 3, 4):
        _, pol = fe.u_k_solve(K, 500)
        for code in range(2 ** K):
            path = tuple(1 if (code >> i) & 1 else -1 for i in range(K))
            assert pol.path_fraction_sum(path) == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.abs(pol.nodes[:, 0]) <= 1.0 + 1e-12)


def _prefixes(K):
    """Every sign prefix shorter than K."""
    return [p for length in range(K) for p in itertools.product((1, -1), repeat=length)]


def _prefix_string(prefix) -> str:
    return "".join("+" if s > 0 else "-" for s in prefix)


def _policy_json_dict(policy) -> dict:
    """The policy as the dict whose ``json.dump(indent=2, sort_keys=True)``
    ``write_policy_json`` writes; the writer never builds it."""
    return {
        "budget_K": policy.budget_K,
        "resolution": policy.resolution,
        "nodes": {_prefix_string(p): dict(zip(("x", "m_plus", "m_minus"),
                                             policy.nodes[policy_row(p)].tolist()))
                  for p in _prefixes(policy.budget_K)},
    }


def test_policy_rows_are_level_order_and_children_follow_the_formula():
    # the level-by-level walk lists a level's +1 children, then its -1
    # children, each in the level's order
    assert (policy_row(()), policy_row((1,)), policy_row((-1,))) == (0, 1, 2)
    assert [policy_row(p) for p in ((1, 1), (-1, 1), (1, -1), (-1, -1))] == [3, 4, 5, 6]
    for K in range(1, 5):
        walk, level = [], [()]
        for _ in range(K):
            walk += level
            level = [p + (s,) for s in (1, -1) for p in level]
        assert [policy_row(p) for p in walk] == list(range(2 ** K - 1))
        for p in walk:
            for s in (1, -1):
                assert fe.child_row(policy_row(p), s) == policy_row(p + (s,))
        _, pol = fe.u_k_solve(K, 300)
        assert pol.nodes.shape == (2 ** K - 1, 3) and not pol.nodes.flags.writeable


def test_policy_past_max_nodes_raises_before_any_table_is_solved(monkeypatch):
    K = fe.MAX_POLICY_NODES.bit_length() + 1   # the first budget over the cap
    assert 2 ** (K - 1) - 1 <= fe.MAX_POLICY_NODES < 2 ** K - 1

    def unsolvable(*args):
        raise AssertionError("a table was solved")
    monkeypatch.setattr(fe, "solve_tables", unsolvable)
    monkeypatch.setattr(fe, "fugal_apply", unsolvable)
    with pytest.raises(CapacityError, match="MAX_POLICY_NODES"):
        fe.u_k_solve(K, 500)
    with pytest.raises(CapacityError, match="MAX_POLICY_NODES"):
        fe.extract_policy([], K)


def test_policy_json_roundtrip(tmp_path):
    _, pol = fe.u_k_solve(3, 500)
    path = tmp_path / "policy.json"
    fe.write_policy_json(pol, str(path))
    back = json.loads(path.read_text())
    assert back == _policy_json_dict(pol)   # floats survive the dump bit for bit
    assert back["budget_K"] == pol.budget_K and len(back["nodes"]) == len(pol.nodes)
    assert back["nodes"]["+-"]["m_plus"] == pol.nodes.item(policy_row((1, -1)), 1)


def test_grid_csv_dump(tmp_path):
    tables = fe.solve_tables(2, 500)
    path = tmp_path / "grid.csv"
    fe.write_grid_csv(tables, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "z,u_1,u_2"
    assert len(lines) == 502


def _reference_policy_json(policy) -> bytes:
    text = json.dumps(_policy_json_dict(policy), indent=2, sort_keys=True) + "\n"
    return text.encode("utf-8")


def _reference_grid_csv(tables) -> bytes:
    # one f-string per cell, independent of the writer's row format
    lines = ["z," + ",".join(f"u_{k}" for k in range(1, len(tables) + 1))]
    for j, z in enumerate(tables[0].grid):
        lines.append(",".join([f"{z:.17g}"] + [f"{t.values[j]:.17g}" for t in tables]))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("K", [1, 2, 8])
def test_writers_match_json_dump_and_the_per_cell_csv(tmp_path, K):
    tables, pol = fe.u_k_solve(K, 300)
    fe.write_policy_json(pol, str(tmp_path / "policy.json"))
    fe.write_grid_csv(tables, str(tmp_path / "grid.csv"))
    assert (tmp_path / "policy.json").read_bytes() == _reference_policy_json(pol)
    assert (tmp_path / "grid.csv").read_bytes() == _reference_grid_csv(tables)


def test_policy_json_spells_non_finite_and_signed_zero_as_json_does(tmp_path):
    # 0.0 and -0.0 share the x and m_plus columns: a writer that spelled
    # each distinct value, not each distinct bit pattern, once would merge them
    nan, inf = float("nan"), float("inf")
    pol = fe.FugalPolicy(budget_K=2, resolution=100, nodes=np.array([
        [-0.0, nan, inf],            # ()
        [-inf, 0.0, 1e-300],         # (+1,)
        [0.0, -0.0, 2.5e16]]))       # (-1,)
    path = tmp_path / "policy.json"
    fe.write_policy_json(pol, str(path))
    text = path.read_text()
    assert path.read_bytes() == _reference_policy_json(pol)
    assert '"m_minus": Infinity' in text and '"m_plus": NaN' in text
    assert '"x": -Infinity' in text and '"x": -0.0' in text and '"x": 0.0' in text
    assert '"m_plus": 0.0' in text and '"m_plus": -0.0' in text and '"m_minus": 1e-300' in text


def test_operator_witness_on_constant_one():
    N = 500
    ones = fe.GridFunction(N, np.ones(N + 1))
    xs, values, z_plus, z_minus = fe.operator_witness(ones, [0.0])
    assert xs.tolist() == [0.0]
    assert values[0] == pytest.approx(0.5, abs=1e-9)
    assert z_plus[0] == pytest.approx(1.0)
    assert z_minus[0] == pytest.approx(-1.0)


def test_operator_witness_rejects_boundary():
    ones = fe.GridFunction(200, np.ones(201))
    with pytest.raises(ValueError):
        fe.operator_witness(ones, np.array([1.0]))


def test_operator_witness_rejects_nan():
    ones = fe.GridFunction(200, np.ones(201))
    with pytest.raises(ValueError):
        fe.operator_witness(ones, np.array([math.nan]))


@pytest.mark.parametrize("bad", [1.0, -1.0, math.nan])
def test_operator_witness_rejects_a_batch_with_one_bad_bias(bad):
    ones = fe.GridFunction(200, np.ones(201))
    with pytest.raises(ValueError, match=r"\|z\| < 1"):
        fe.operator_witness(ones, np.array([-0.5, 0.0, bad, 0.9]))


# ------------------------------------------------------------- batched witnesses

def _reference_witness(f, z):
    """The pointwise witness as a node scan per adversary sign: bisect the
    crossing in x only until the scans' argmin pair is the same at both ends
    of the bracket, take that pair's line root (the tie rule sends a root
    within 1e-13 of 0 to 0.0), and sharpen each argmin node by a three-point
    parabola.  O(N) per scan and no hull trees: kept as the reference the
    level-batched witnesses must reproduce bit for bit.  Returns (x, value,
    {sign: inner minimizer})."""
    grid, v, N = f.grid, f.values, f.resolution
    j0 = int(np.searchsorted(grid, z, side="left"))        # w = +1 nodes j >= j0
    j1 = int(np.searchsorted(grid, z, side="right")) - 1   # w = -1 nodes j <= j1
    inv = {w: 1.0 / np.maximum(1.0 + w * grid, fe.DENOM_CLAMP) for w in (1, -1)}

    def at_node(w, j, x):
        return ((1.0 + w * z) * v[j] + x * (grid[j] - z)) / np.maximum(1.0 + w * grid[j], fe.DENOM_CLAMP)

    def scan(w, x):
        """(argmin, min) over the nodes of sign w and, off the grid, the
        candidate z' = z (index -1, worth f(z); it wins ties)."""
        js = np.arange(j0, N + 1) if w > 0 else np.arange(j1 + 1)
        vals = at_node(w, js, x)
        i = int(np.argmin(vals))
        if j0 > j1 and f.interp(z) <= vals[i]:
            return -1, f.interp(z)
        return int(js[i]), float(vals[i])

    def pair(x):
        return scan(1, x)[0], scan(-1, x)[0]

    def h(x):
        return scan(1, x)[1] - scan(-1, x)[1]

    if h(-1.0) > 1e-9 and h(1.0) < -1e-9:
        raise fe.NumericStructureError("crossing function not monotone at this point")
    lo, hi = (-1.0, -1.0) if h(-1.0) >= 0.0 else (1.0, 1.0) if h(1.0) < 0.0 else (-1.0, 1.0)
    while pair(lo) != pair(hi) and hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if h(mid) >= 0.0 else (mid, hi)
    # the root of h's line for the pair (jp, jm); the candidate's line has
    # slope term 1 and intercept f(z)
    jp, jm = pair(hi)
    sp, cp = (1.0, f.interp(z)) if jp < 0 else ((1.0 + z) * inv[1][jp], (1.0 + z) * (v[jp] * inv[1][jp]))
    sm, cm = (1.0, f.interp(z)) if jm < 0 else ((1.0 - z) * inv[-1][jm], (1.0 - z) * (v[jm] * inv[-1][jm]))
    slope = 2.0 - sp - sm
    x0 = min(max(-(cp - cm) / slope if slope > 0 else 0.0, lo), hi)
    if abs(x0) <= 1e-13:
        x0 = 0.0
    z_next = {}
    for w, j, first, last in ((1, jp, j0, N), (-1, jm, 0, j1)):
        z_next[w] = z if j < 0 else grid[j]
        if first < j < last:
            (a, b, c) = grid[j - 1:j + 2]
            ya, yb, yc = (at_node(w, i, x0) for i in (j - 1, j, j + 1))
            den = (b - a) * (yb - yc) - (b - c) * (yb - ya)
            if abs(den) >= 1e-300:
                vx = b - 0.5 * ((b - a) * (b - a) * (yb - yc) - (b - c) * (b - c) * (yb - ya)) / den
                if a < vx < c:
                    z_next[w] = vx
    value = max(scan(1, x0)[1], scan(-1, x0)[1])
    return x0, value, z_next


def _reference_policy(tables, budget_K):
    """The sign tree walked depth first, one reference witness per node:
    each prefix string mapped to its node's ``x``, ``m_plus`` and ``m_minus``."""
    nodes = {}

    def record(prefix, x, m_plus, m_minus):
        nodes[_prefix_string(prefix)] = {"x": x, "m_plus": m_plus, "m_minus": m_minus}

    def visit(prefix, z, tau):
        blocks_left = budget_K - len(prefix)
        if abs(z) >= 1.0 - 1e-12:
            record(prefix, -math.copysign(1.0, z), tau, tau)
            if blocks_left > 1:
                visit(prefix + (1,), z, 0.0)
                visit(prefix + (-1,), z, 0.0)
            return
        if blocks_left == 1:
            record(prefix, -z + 0.0, tau, tau)
            return
        x, _, z_next = _reference_witness(tables[blocks_left - 2], z)
        frac = {s: float(tau * min(max((z_next[s] - z) / (s + z_next[s]), 0.0), 1.0))
                for s in (1, -1)}
        record(prefix, float(x), frac[1], frac[-1])
        for s in (1, -1):
            visit(prefix + (s,), z_next[s], tau - frac[s])

    visit((), 0.0, 1.0)
    return nodes


@pytest.mark.parametrize("K,N", [(2, 500), (3, 500), (4, 500), (3, 2000), (8, 500)])
def test_extract_policy_matches_reference_bit_for_bit(K, N):
    tables = fe.solve_tables(K, N)
    new = _policy_json_dict(fe.extract_policy(tables, K))
    ref = _reference_policy(tables, K)
    assert new["resolution"] == N and len(new["nodes"]) == len(ref) == 2 ** K - 1
    # every prefix, compared as JSON text, so that even the sign of a zero
    # fraction counts
    assert json.dumps(new["nodes"], sort_keys=True) == json.dumps(ref, sort_keys=True)


def test_witness_values_match_operator_at_nodes():
    # one code path for the inf-max-inf: at a grid node the witness and
    # fugal_apply solve the same crossing with the same root finder
    for N in (500, 1000):
        tables = fe.solve_tables(5, N)
        interior = fe.make_grid(N)[1:-1]
        for f, image in zip(tables, tables[1:]):
            _, value, _, _ = fe.operator_witness(f, interior)
            assert float(np.max(np.abs(value - image.values[1:-1]))) <= 1e-15


def test_witnesses_match_reference_where_z_itself_is_the_inner_minimizer():
    # f rises steeply right of 0.1, so for biases between nodes just above
    # it the w = +1 branch keeps z' = z: the off-node candidate is active
    N = 200
    grid = fe.make_grid(N)
    f = fe.GridFunction(N, np.abs(grid) + 0.2 + 5.0 * np.maximum(grid - 0.1, 0.0))
    zs = np.linspace(-0.05, 0.12, 37) + 1e-4
    xs, _, z_plus, z_minus = fe.operator_witness(f, zs)
    assert np.sum(z_plus == zs) >= 3
    for r, z in enumerate(zs):
        x, _, z_next = _reference_witness(f, float(z))
        assert (x, z_next[1], z_next[-1]) == (xs[r], z_plus[r], z_minus[r])


def test_tied_inner_minimizers_have_the_reference_value():
    # on |z| the inner objective is flat over a range of z' at z = 0.333
    # (T f = f there): the reported z' may differ from the reference's, but
    # the objective takes the same value at both
    f = fe.grid_of(abs, 200)
    z = 0.333
    xs, _, z_plus, z_minus = fe.operator_witness(f, np.array([z]))
    ref_x, _, ref_z_next = _reference_witness(f, z)
    for w, mine in ((1, z_plus[0]), (-1, z_minus[0])):
        assert abs(_objective(f, z, w, mine, xs[0])
                   - _objective(f, z, w, ref_z_next[w], ref_x)) <= 1e-12


def test_policy_k10_sums_to_one_and_is_mirror_symmetric():
    K = 10
    _, pol = fe.u_k_solve(K, 500)
    assert len(pol.nodes) == 2 ** K - 1
    for code in range(2 ** K):
        path = tuple(1 if (code >> i) & 1 else -1 for i in range(K))
        assert pol.path_fraction_sum(path) == pytest.approx(1.0, abs=1e-6)
    for prefix in _prefixes(K):
        x, m_plus, _ = pol.nodes[policy_row(prefix)]
        mirror_x, _, mirror_m_minus = pol.nodes[policy_row(tuple(-s for s in prefix))]
        assert x == pytest.approx(-mirror_x, abs=1e-6)
        assert m_plus == pytest.approx(mirror_m_minus, abs=1e-6)
        assert abs(x) <= 1.0 + 1e-12
    # The witness on u_1 sends the bias to the boundary z' = w, so every
    # node of the last level is absorbing: it plays -sign(z) = -w and its
    # block takes all that is left of the horizon whatever the sign.
    for code in range(2 ** (K - 1)):
        prefix = tuple(1 if (code >> i) & 1 else -1 for i in range(K - 1))
        x, m_plus, m_minus = pol.nodes[policy_row(prefix)]
        left = 1.0 - sum(pol.nodes.item(policy_row(prefix[:i]), 1 if prefix[i] > 0 else 2)
                         for i in range(K - 1))
        assert x == -prefix[-1]
        assert m_plus == m_minus == pytest.approx(left, abs=1e-6)
