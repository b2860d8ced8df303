import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from switchlab import fugal_engine as fe

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
    ones = fe.GridFunction(N, np.ones(N + 1), k_index=1)
    out = fe.fugal_apply(ones)
    grid = out.grid
    assert np.allclose(out.values, (grid * grid + 1.0) / 2.0, atol=1e-9)
    assert out.values[0] == 1.0 and out.values[-1] == 1.0
    assert out.k_index == 2


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

    k_next = None if f.k_index is None else f.k_index + 1
    return fe.GridFunction(N, out, k_index=k_next)


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
    u = fe.GridFunction(1000, np.ones(1001), k_index=1)
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
            assert [t.k_index for t in fe._table_cache[400]] == [1, 2, 3]
            for tables in results:
                assert [t.k_index for t in tables] == [1, 2, 3]
            assert fe.solve_tables(3, 400)[2].interp(0.0) == pytest.approx(SQRT2 - 1.0, abs=1e-3)
    finally:
        sys.setswitchinterval(interval)


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
        u3 = fe.fugal_apply(fe.fugal_apply(fe.GridFunction(N, np.ones(N + 1), k_index=1)))
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


# ------------------------------------------------------------- policy

def test_policy_k2_is_halfsplit_threshold():
    _, pol = fe.u_k_solve(2, 500)
    assert pol.x_star(()) == 0.0
    assert pol.m_fraction((), +1) == pytest.approx(0.5, abs=1e-12)
    assert pol.m_fraction((), -1) == pytest.approx(0.5, abs=1e-12)
    assert pol.x_star((1,)) == pytest.approx(-1.0)
    assert pol.x_star((-1,)) == pytest.approx(1.0)


def test_policy_k3_first_block_fraction():
    _, pol = fe.u_k_solve(3, 1000)
    target = 1.0 - SQRT2 / 2.0
    assert pol.m_fraction((), +1) == pytest.approx(target, abs=1e-3)
    assert pol.m_fraction((), -1) == pytest.approx(target, abs=1e-3)


def test_policy_fractions_sum_to_one_and_actions_in_ball():
    for K in (2, 3, 4):
        _, pol = fe.u_k_solve(K, 500)
        for code in range(2 ** K):
            path = tuple(1 if (code >> i) & 1 else -1 for i in range(K))
            assert pol.path_fraction_sum(path) == pytest.approx(1.0, abs=1e-6)
        assert all(abs(n.x) <= 1.0 + 1e-12 for n in pol.nodes.values())


def test_policy_json_roundtrip(tmp_path):
    _, pol = fe.u_k_solve(3, 500)
    path = tmp_path / "policy.json"
    fe.write_policy_json(pol, str(path))
    back = json.loads(path.read_text())
    assert back == pol.to_json_dict()   # floats survive the dump bit for bit
    assert back["budget_K"] == pol.budget_K and len(back["nodes"]) == len(pol.nodes)
    assert back["nodes"]["+-"]["m_plus"] == pol.m_fraction((1, -1), 1)


def test_grid_csv_dump(tmp_path):
    tables = fe.solve_tables(2, 500)
    path = tmp_path / "grid.csv"
    fe.write_grid_csv(tables, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "z,u_1,u_2"
    assert len(lines) == 502


def test_operator_witness_on_constant_one():
    N = 500
    ones = fe.GridFunction(N, np.ones(N + 1), k_index=1)
    wit = fe.operator_witness(ones, 0.0)
    assert wit.x == 0.0
    assert wit.value == pytest.approx(0.5, abs=1e-9)
    assert wit.z_next[+1] == pytest.approx(1.0)
    assert wit.z_next[-1] == pytest.approx(-1.0)


def test_operator_witness_rejects_boundary():
    ones = fe.GridFunction(200, np.ones(201))
    with pytest.raises(ValueError):
        fe.operator_witness(ones, 1.0)


def test_operator_witness_rejects_nan():
    ones = fe.GridFunction(200, np.ones(201))
    with pytest.raises(ValueError):
        fe.operator_witness(ones, math.nan)


# ------------------------------------------------------------- batched witnesses

def _reference_witness(f, z):
    """The pointwise witness as a node scan per adversary sign: bisect the
    crossing in x only until the scans' argmin pair is the same at both ends
    of the bracket, take that pair's line root (the tie rule sends a root
    within 1e-13 of 0 to 0.0), and sharpen each argmin node by a three-point
    parabola.  O(N) per scan and no hull trees: kept as the reference the
    level-batched witnesses must reproduce bit for bit."""
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
    return fe.OperatorWitness(x=x0, value=value, z_next=z_next)


def _reference_policy(tables, budget_K):
    """The sign tree walked depth first, one reference witness per node."""
    nodes = {}

    def visit(prefix, z, tau):
        blocks_left = budget_K - len(prefix)
        if abs(z) >= 1.0 - 1e-12:
            nodes[prefix] = fe.PolicyNode(x=-math.copysign(1.0, z), m_plus=tau, m_minus=tau)
            if blocks_left > 1:
                visit(prefix + (1,), z, 0.0)
                visit(prefix + (-1,), z, 0.0)
            return
        if blocks_left == 1:
            nodes[prefix] = fe.PolicyNode(x=-z + 0.0, m_plus=tau, m_minus=tau)
            return
        wit = _reference_witness(tables[blocks_left - 2], z)
        frac = {s: float(tau * min(max((wit.z_next[s] - z) / (s + wit.z_next[s]), 0.0), 1.0))
                for s in (1, -1)}
        nodes[prefix] = fe.PolicyNode(x=float(wit.x), m_plus=frac[1], m_minus=frac[-1])
        for s in (1, -1):
            visit(prefix + (s,), wit.z_next[s], tau - frac[s])

    visit((), 0.0, 1.0)
    return fe.FugalPolicy(budget_K=budget_K, resolution=tables[0].resolution, nodes=nodes)


@pytest.mark.parametrize("K,N", [(2, 500), (3, 500), (4, 500), (3, 2000), (8, 500)])
def test_extract_policy_matches_reference_bit_for_bit(K, N):
    tables = fe.solve_tables(K, N)
    new = fe.extract_policy(tables, K).to_json_dict()
    ref = _reference_policy(tables, K).to_json_dict()
    assert new["resolution"] == N
    # compared as JSON text, so that even the sign of a zero fraction counts
    assert json.dumps(new) == json.dumps(ref)


def test_witness_values_match_operator_at_nodes():
    # one code path for the inf-max-inf: at a grid node the witness and
    # fugal_apply solve the same crossing with the same root finder
    for N in (500, 1000):
        tables = fe.solve_tables(5, N)
        interior = fe.make_grid(N)[1:-1]
        for f, image in zip(tables, tables[1:]):
            _, value, _, _ = fe._witnesses(f, interior)
            assert float(np.max(np.abs(value - image.values[1:-1]))) <= 1e-15


def test_witnesses_match_reference_where_z_itself_is_the_inner_minimizer():
    # f rises steeply right of 0.1, so for biases between nodes just above
    # it the w = +1 branch keeps z' = z: the off-node candidate is active
    N = 200
    grid = fe.make_grid(N)
    f = fe.GridFunction(N, np.abs(grid) + 0.2 + 5.0 * np.maximum(grid - 0.1, 0.0))
    zs = np.linspace(-0.05, 0.12, 37) + 1e-4
    xs, _, z_plus, z_minus = fe._witnesses(f, zs)
    assert np.sum(z_plus == zs) >= 3
    for r, z in enumerate(zs):
        wit = _reference_witness(f, float(z))
        assert (wit.x, wit.z_next[1], wit.z_next[-1]) == (xs[r], z_plus[r], z_minus[r])


def test_tied_inner_minimizers_have_the_reference_value():
    # on |z| the inner objective is flat over a range of z' at z = 0.333
    # (T f = f there): the reported z' may differ from the reference's, but
    # the objective takes the same value at both
    f = fe.grid_of(abs, 200)
    z = 0.333
    xs, _, z_plus, z_minus = fe._witnesses(f, np.array([z]))
    ref = _reference_witness(f, z)

    def objective(w, z_next, x):
        return ((1.0 + w * z) * f.interp(z_next) + x * (z_next - z)) / (1.0 + w * z_next)

    for w, mine in ((1, z_plus[0]), (-1, z_minus[0])):
        assert abs(objective(w, mine, xs[0]) - objective(w, ref.z_next[w], ref.x)) <= 1e-12


def test_operator_witness_is_a_batch_of_one():
    f = fe.solve_tables(4, 500)[3]
    zs = np.array([-0.93, -0.5, -0.2004, 0.0, 0.004, 0.31, 0.77])
    xs, values, z_plus, z_minus = fe._witnesses(f, zs)
    for r, z in enumerate(zs):
        wit = fe.operator_witness(f, float(z))
        assert (wit.x, wit.value) == (xs[r], values[r])
        assert wit.z_next == {+1: z_plus[r], -1: z_minus[r]}


def test_policy_k10_sums_to_one_and_is_mirror_symmetric():
    K = 10
    _, pol = fe.u_k_solve(K, 500)
    assert len(pol.nodes) == 2 ** K - 1
    for code in range(2 ** K):
        path = tuple(1 if (code >> i) & 1 else -1 for i in range(K))
        assert pol.path_fraction_sum(path) == pytest.approx(1.0, abs=1e-6)
    for prefix, node in pol.nodes.items():
        mirror = pol.nodes[tuple(-s for s in prefix)]
        assert node.x == pytest.approx(-mirror.x, abs=1e-6)
        assert node.m_plus == pytest.approx(mirror.m_minus, abs=1e-6)
        assert abs(node.x) <= 1.0 + 1e-12
    # The witness on u_1 sends the bias to the boundary z' = w, so every
    # node of the last level is absorbing: it plays -sign(z) = -w and its
    # block takes all that is left of the horizon whatever the sign.
    for code in range(2 ** (K - 1)):
        prefix = tuple(1 if (code >> i) & 1 else -1 for i in range(K - 1))
        node = pol.nodes[prefix]
        left = 1.0 - sum(pol.m_fraction(prefix[:i], prefix[i]) for i in range(K - 1))
        assert node.x == -prefix[-1]
        assert node.m_plus == node.m_minus == pytest.approx(left, abs=1e-6)
