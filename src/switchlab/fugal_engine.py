"""Numerical solver for the fugal-game recursion and its closed forms.

The fugal game is a relaxation of the 1-d switching-constrained game: the
adversary plays only +-1 and copies the player's switching pattern, while
block lengths are nonnegative reals summing to the horizon T.  Its minimax
value with k blocks and initial bias Z, normalized by T, is a function
u_k(z) of z = Z/T alone, with

    u_1(z) = 1 on (-1,1),    u_k(z) = |z| for |z| >= 1,

and the one-step recursion u_{k+1} = T u_k where the operator T acts on
continuous f >= |z| by

    (T f)(z) = inf_{x in [-1,1]} max_{w=+-1}
               inf_{|z'|<1, w(z'-z)>=0} ((1+wz) f(z') + x (z'-z)) / (1+z'w).

This module represents u_k on a uniform grid with linear interpolation,
applies the operator numerically, evaluates every relevant closed form
(the quadratic floor family a_k, its exact image under the operator, the
one-block boundary value, the overshoot cap, and the exact budget-4
constants), and extracts the optimal policy (x*_i, M*_i/T per sign prefix)
that drives the fugal player.  The policy is one (2^K - 1, 3) array, the
sign prefixes in level order (the rows of a level in the order its
witness batch computes them), and is written as JSON in one pass that
spells each distinct float once.

Numerics.  For a piecewise-linear f the inner objective restricted to one
grid cell is a ratio of two affine functions of z', hence monotone there,
so its infimum over the half-interval is attained at a grid node, where it
is a line in x, or at z' = z, where it is the constant f(z): g_plus (the
w=+1 branch value) is a lower envelope of lines over the nodes right of z
and g_minus over those left of it.  Per branch one tree stores all these
envelopes as root paths: one NumPy pass over the crossings of consecutive
lines builds it, with a walk up the tree only where a line leaves the
envelope (none for u_1's concurrent lines).  A query lifts over segments,
runs of lines each the parent of the next (not at all on a chain), and
makes one searchsorted.  g_plus is nondecreasing in x and g_minus
nonincreasing, so h = g_plus - g_minus is monotone and piecewise linear;
the outer infimum is its root, found exactly by Newton steps on the active
line pair inside a bisection bracket (each end keeps its pair's line of h,
so a step computes only its candidate's).  One routine does this for the
grid nodes of fugal_apply and for operator_witness, which takes a batch of
biases: the policy asks once per sign-tree level (every bias of a level
queries the same u_{k-1}), the closed-form check once per floor.  The
active line at the root is the argmin node.  Because the objective is
monotone per cell, no search between nodes can beat that node; a
three-point parabola through it and its neighbours still sharpens the
minimizer, as the node alone is only O(grid step) accurate, too coarse for
the switch-round tolerances the policy has to meet.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, NumericStructureError

DEFAULT_RESOLUTION = 2000

#: lower clamp for the operator denominators 1 + z'w near z' = -w
DENOM_CLAMP = 1e-9


def make_grid(resolution: int) -> np.ndarray:
    """Nodes z_j = -1 + 2j/N, j = 0..N."""
    return np.linspace(-1.0, 1.0, resolution + 1)


@dataclass(frozen=True)
class GridFunction:
    """A function on [-1,1] sampled at N+1 uniform nodes, linear in between."""

    resolution: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.resolution + 1,):
            raise ValueError("values must have resolution+1 entries")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> np.ndarray:
        return make_grid(self.resolution)

    def interp(self, z: float) -> float:
        """The value at z; ``ValueError`` where z is NaN or |z| > 1."""
        return float(np.interp(_on_domain(z, "interp"), self.grid, self.values))


def grid_of(fn, resolution: int) -> GridFunction:
    """Sample ``fn``, called once on the array of nodes, onto the standard grid."""
    return GridFunction(resolution, fn(make_grid(resolution)))


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def _on_domain(z, name: str) -> np.ndarray:
    """``z`` as a float array (0-d for a scalar); ``ValueError`` if any entry
    is NaN or leaves [-1, 1]."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.abs(z) <= 1.0 + 1e-12):
        raise ValueError(f"{name} domain is [-1, 1]")
    return z


def quadratic_floor(k: int, z):
    """The quadratic floor a_k: a_1 = 1 and, for k >= 2,

        a_k(z) = (sqrt(k/2) z^2 + sqrt(2/k)) / 2   for |z| < sqrt(2/k),
                 |z|                                otherwise,

    continuous at the junction, with a_k(0) = 1/sqrt(2k).  Pointwise lower
    bound for u_k, preserved in that role by the operator.  A float ``z``
    gives a float, an array an array, entry by entry the same float ops.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    z = _on_domain(z, "quadratic_floor")
    cut = math.sqrt(2.0 / k)
    a = np.ones_like(z) if k == 1 else np.where(
        abs(z) < cut, (math.sqrt(k / 2.0) * z * z + cut) / 2.0, abs(z))
    return a if a.ndim else float(a)


def quadratic_floor_image(i: int, z):
    """Exact image of the quadratic floor under the operator, i >= 2:

        (T a_i)(z) = sqrt(i/2) (z^2 - 1 + sqrt(1 + 2/i - z^2))  for |z| <= sqrt(2/i),
                     |z|                                         otherwise.

    (i = 1 is excluded: T a_1 is the parabola (z^2+1)/2, a separate fact.)
    Takes a float or an array ``z``, as :func:`quadratic_floor` does.
    """
    if i < 2:
        raise ValueError("closed-form image needs i >= 2")
    z = _on_domain(z, "quadratic_floor_image")
    rad = np.maximum(1.0 + 2.0 / i - z * z, 0.0)
    image = np.where(abs(z) <= math.sqrt(2.0 / i),
                     math.sqrt(i / 2.0) * (z * z - 1.0 + np.sqrt(rad)), abs(z))
    return image if image.ndim else float(image)


def branch_cutoffs(i: int, x: float) -> tuple[float, float]:
    """Inner minimizer locations (z_plus, z_minus) for the two adversary
    signs when the operator acts on the quadratic floor a_i:

        z_plus  = sqrt(1 + 2/i - 2 sqrt(2/i) x) - 1,
        z_minus = 1 - sqrt(1 + 2/i + 2 sqrt(2/i) x),

    with z_plus >= z_minus and |z_plus|, |z_minus| <= sqrt(2/i).
    """
    if i < 2:
        raise ValueError("branch cutoffs need i >= 2")
    if not abs(x) <= 1.0 + 1e-12:
        raise ValueError("branch cutoffs need an action x in [-1, 1]")
    s = math.sqrt(2.0 / i)
    z_plus = math.sqrt(max(1.0 + 2.0 / i - 2.0 * s * x, 0.0)) - 1.0
    z_minus = 1.0 - math.sqrt(max(1.0 + 2.0 / i + 2.0 * s * x, 0.0))
    return z_plus, z_minus


def crossing_action(i: int, z: float) -> float:
    """Unique x in [-1,1] where the two branch values of the operator on
    the quadratic floor cross:

        x_0(z) = -z sqrt(-i z^2 + i + 2) / sqrt(2)  for |z| <= sqrt(2/i),
                 -sign(z)                            otherwise.
    """
    if i < 2:
        raise ValueError("crossing action needs i >= 2")
    z = float(_on_domain(z, "crossing_action"))
    if abs(z) <= math.sqrt(2.0 / i):
        x = -z * math.sqrt(max(-i * z * z + i + 2.0, 0.0)) / math.sqrt(2.0)
        return min(max(x, -1.0), 1.0)
    return -math.copysign(1.0, z)


def one_block_value(horizon_T: float, bias_Z: float) -> float:
    """Minimax value with a single block (no switching left):

        r_1(T, Z) = (|Z - T| + |Z + T|) / 2.
    """
    if not (horizon_T > 0 and math.isfinite(bias_Z)):
        raise ValueError("horizon must be positive and the bias finite")
    return (abs(bias_Z - horizon_T) + abs(bias_Z + horizon_T)) / 2.0


def overshoot_value(horizon_T: float, bias_Z: float) -> float:
    """Exact minimax value over continuations that push the bias out of the
    reachable range: (Z^2 + T^2) / (2T), valid for |Z| < T.  Its normalized
    form (z^2 + 1)/2 caps the recursion.
    """
    if not abs(bias_Z) < horizon_T:
        raise ValueError("overshoot value requires |Z| < T")
    return (bias_Z * bias_Z + horizon_T * horizon_T) / (2.0 * horizon_T)


def u4_exact() -> tuple[float, float]:
    """Exact budget-4 constants (u4_zero, z0).

    u4_zero = u_4(0) in nested-radical closed form (about 0.362975), and
    z0 is the unique root in (0,1) of the sextic

        p(t) = -t^6 - 4t^5 - 4t^4 + 4t^3 + 10t^2 + 4t - 2

    locating the minimizer of (t^2 - 1 + sqrt(2 - t^2))/(1 + t); z0 is
    found by bisection (p(0) = -2, p(1) = 7 bracket the root) and checked
    against its Cardano closed form to 1e-12.
    """
    s2 = math.sqrt(2.0)
    c = (45.0 * s2 + 3.0 * math.sqrt(3.0 * (502.0 * s2 + 945.0)) + 145.0) ** (1.0 / 3.0)
    u4_zero = c / 3.0 - 5.0 / 3.0 - 2.0 * (3.0 * s2 + 1.0) / (3.0 * c)

    def p(t: float) -> float:
        return ((((((-t - 4.0) * t - 4.0) * t + 4.0) * t + 10.0) * t + 4.0) * t - 2.0)

    lo, hi = 0.0, 1.0
    if not (p(lo) < 0.0 < p(hi)):
        raise NumericStructureError("sextic root bracket failed on (0, 1)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-16:
            break
    z0_bisect = 0.5 * (lo + hi)

    r = -9.0 * s2 + 3.0 * math.sqrt(6.0 * (2.0 * s2 + 9.0)) + 38.0
    z0 = (-2.0 * (3.0 * s2 - 4.0) * (2.0 / r) ** (1.0 / 3.0)
          + 2.0 ** (2.0 / 3.0) * r ** (1.0 / 3.0) - 4.0) / 6.0
    if abs(z0 - z0_bisect) > 1e-12:
        raise NumericStructureError("Cardano root disagrees with bisection")
    return u4_zero, z0


# ----------------------------------------------------------------------
# the operator on grids
# ----------------------------------------------------------------------

class _HullTree(NamedTuple):
    """A :func:`_hull_tree`, by position q in the order the lines are added."""
    order: np.ndarray    # the line at each position
    pos: np.ndarray      # the position of each line of order
    b: np.ndarray        # the crossing with the parent (-inf at a root)
    parent: np.ndarray   # the parent's position (its own at a root)
    seg: np.ndarray      # the segment, numbered in order
    head_b: np.ndarray   # by segment: the head's breakpoint
    entry: np.ndarray    # by segment: the head's parent position
    up: list             # by segment: the 2^l-th next segment down the root path
    key: np.ndarray      # seg + i b: ascending as NumPy orders complex


def _hull_tree(c: np.ndarray, s: np.ndarray, order: np.ndarray) -> _HullTree:
    """Lower envelopes of the lines c_j - t s_j, added in the index array
    ``order`` (s rising along it), as one tree: the envelope of the lines
    added up to position q is the root path from q, where line order[q]
    wins for t above b[q], its crossing with its parent.

    One NumPy pass takes each line's crossing with the line added just
    before it; where that lies above the earlier line's own breakpoint, the
    earlier line is the parent.  Elsewhere the earlier line leaves the
    envelope (a pop), and the new line walks up its root path (the stack of
    a sequential hull sweep) to its parent, as does the line after each one
    that popped.  Both make the sweep's divisions on the same operands, so b
    is the sweep's to the bit.  Concurrent lines (u_1's), each crossing the
    line before it and the first line at b[1] by the walk's divisions, make
    a star without a walk.  A segment is a maximal run of positions each the
    parent of the next; a chain or a star needs no lifting level."""
    n = order.size
    cs, ss = c[order], s[order]
    b = np.full(n, -math.inf)
    b[1:] = np.diff(cs) / np.diff(ss)
    parent = np.arange(-1, n - 1).clip(0)
    pops = (np.flatnonzero(~(b[1:] > b[:-1])) + 1).tolist()
    if pops[:1] == [2] and (b[2:] == b[1]).all() \
            and ((cs[2:] - cs[0]) / (ss[2:] - ss[0]) == b[1]).all():
        parent[2:] = 0
    elif pops:
        cl, sl, bl, pl = cs.tolist(), ss.tolist(), b.tolist(), parent.tolist()
        done = 0
        for q in pops:
            while q > done:   # walk q, then the line after q while the walk pops
                done, top = q, q - 1
                while not (t := (cl[q] - cl[top]) / (sl[q] - sl[top])) > bl[top] \
                        and pl[top] != top:
                    top = pl[top]
                pl[q], bl[q] = (top, t) if t > bl[top] else (q, -math.inf)
                if pl[q] != q - 1 and q + 1 < n:
                    q += 1
        b, parent = np.array(bl), np.array(pl)
    is_head = parent != np.arange(-1, n - 1)
    seg, head = np.cumsum(is_head) - 1, np.flatnonzero(is_head)
    nxt = seg[parent[head]]   # a root segment is its own next
    up, jump = [], nxt
    while not np.array_equal(nxt[jump], jump):
        up.append(jump)
        jump = jump[jump]
    pos = np.full(c.size, n)   # a line outside order has no position: querying it raises
    pos[order] = np.arange(n)
    key = np.column_stack((seg, b)).view(complex).ravel()
    return _HullTree(order, pos, b, parent, seg, b[head], parent[head], up, key)


def _active_line(tree: _HullTree, nodes, t) -> np.ndarray:
    """The line active at t[r] on the envelope (root path) of nodes[r],
    which must be a line of the tree's order (any other raises IndexError):
    climb the segments whose head has b >= t, to the last one's head's
    parent q, then search (seg[q], t) in the key for the last position of
    that segment with b < t, capped at q."""
    q = tree.pos[nodes]
    s = tree.seg[q]
    for jump in reversed(tree.up):
        nxt = jump[s]
        s = np.where(tree.head_b[nxt] >= t, nxt, s)
    q = np.where(tree.head_b[s] >= t, tree.entry[s], q)
    return tree.order[np.minimum(np.searchsorted(tree.key, tree.seg[q] + 1j * t) - 1, q)]


def _envelopes(f: GridFunction):
    """The branch lines of f and their hull trees: w = +1 takes the lines
    fp_j - x inv_p_j over j >= i, w = -1 takes fm_j - y inv_m_j over j <= i
    in y = -x, both added in slope order.  Returns
    (fp, fm, inv_p, inv_m, tree_p, tree_m), each tree a :class:`_HullTree`."""
    z, v, N = f.grid, f.values, f.resolution
    inv_p = 1.0 / np.maximum(1.0 + z, DENOM_CLAMP)   # w = +1 denominators
    inv_m = 1.0 / np.maximum(1.0 - z, DENOM_CLAMP)   # w = -1 denominators
    fp, fm = v * inv_p, v * inv_m
    return (fp, fm, inv_p, inv_m,
            _hull_tree(fp, inv_p, np.arange(N, 0, -1)), _hull_tree(fm, inv_m, np.arange(N)))


def _crossing_root(env, z: np.ndarray, j0: np.ndarray, j1: np.ndarray, fz=None):
    """The outer infimum of the operator at each bias z[r] (|z| < 1), exact
    on f's envelopes ``env``: the root x of h = g_plus - g_minus on [-1, 1],
    the value max(g_plus, g_minus) there and the active line pair (jp, jm),
    over the node lines j >= j0[r] for g_plus and j <= j1[r] for g_minus.
    Where fz is given and fz[r] is not nan (a bias between nodes), z' = z,
    worth fz[r] for every x (slope term 1, intercept fz[r]), joins both
    branches and wins ties; jp or jm is -1 where it is active.  Raises
    :class:`NumericStructureError` where the signs of h at x = -1 and 1
    contradict its monotonicity (grid too coarse for the method).
    """
    fp, fm, inv_p, inv_m, tree_p, tree_m = env
    one_plus, one_minus = 1.0 + z, 1.0 - z

    def g(r, x, jp, jm):   # the branch values at x on the node lines jp, jm
        return (x + one_plus[r] * (fp[jp] - x * inv_p[jp]),
                -x + one_minus[r] * (fm[jm] + x * inv_m[jm]))

    def pair(r, x):
        jp = _active_line(tree_p, j0[r], x)
        jm = _active_line(tree_m, j1[r], -x)
        if fz is None:
            return jp, jm
        gp, gm = g(r, x, jp, jm)
        return np.where(fz[r] <= gp, -1, jp), np.where(fz[r] <= gm, -1, jm)

    def h_line(r, jp, jm):
        """(slope, intercept) of h in x while the lines jp, jm are active."""
        sp, sm = one_plus[r] * inv_p[jp], one_minus[r] * inv_m[jm]
        cp, cm = one_plus[r] * fp[jp], one_minus[r] * fm[jm]
        if fz is not None:
            sp, cp = np.where(jp < 0, 1.0, sp), np.where(jp < 0, fz[r], cp)
            sm, cm = np.where(jm < 0, 1.0, sm), np.where(jm < 0, fz[r], cm)
        return 2.0 - sp - sm, cp - cm

    def newton(slope, icpt):   # root of an h line; nan where it is flat
        return np.divide(-icpt, slope, out=np.full_like(slope, np.nan), where=slope > 0)

    # Each bracket end keeps its active pair and that pair's h line.
    rows = np.arange(z.size)
    lo, hi = np.full(z.size, -1.0), np.ones(z.size)
    lo_p, lo_m = pair(rows, lo)
    hi_p, hi_m = pair(rows, hi)
    (lo_s, lo_c), (hi_s, hi_c) = h_line(rows, lo_p, lo_m), h_line(rows, hi_p, hi_m)
    h_lo, h_hi = lo_s * lo + lo_c, hi_s * hi + hi_c
    if np.any((h_lo > 1e-9) & (h_hi < -1e-9)):
        raise NumericStructureError(
            "crossing function not monotone at grid resolution "
            f"N={fp.size - 1}; refine the grid")
    # Where h keeps one sign on [-1, 1] the bracket collapses onto that end;
    # elsewhere h(lo) < 0 <= h(hi) holds from here on.
    left, right = h_lo >= 0.0, h_hi < 0.0
    hi[left], hi_p[left], hi_m[left], hi_s[left], hi_c[left] = (
        -1.0, lo_p[left], lo_m[left], lo_s[left], lo_c[left])
    lo[right], lo_p[right], lo_m[right], lo_s[right], lo_c[right] = (
        1.0, hi_p[right], hi_m[right], hi_s[right], hi_c[right])

    # Once both ends share their active pair, h is that line on the bracket
    # and its root is exact.  Until then step to the root of the pair at lo,
    # else at hi, if inside, or else (and every other step after the eighth)
    # bisect; close on the step if its pair stays active there or h is 0.
    live = rows
    for step in range(200):
        split = (lo_p[live] != hi_p[live]) | (lo_m[live] != hi_m[live])
        live = live[split & (hi[live] - lo[live] > 1e-15)]
        if live.size == 0:
            break
        a, c = lo[live], hi[live]
        sp, sm = lo_p[live], lo_m[live]
        cand = newton(lo_s[live], lo_c[live])
        miss = ~((a < cand) & (cand < c))
        sp[miss], sm[miss] = hi_p[live[miss]], hi_m[live[miss]]
        cand[miss] = newton(hi_s[live[miss]], hi_c[live[miss]])
        miss = ~((a < cand) & (cand < c)) | (step >= 8 and step % 2 == 1)
        cand[miss] = 0.5 * (a[miss] + c[miss])
        cp, cm = pair(live, cand)
        cs, cc = h_line(live, cp, cm)
        h = cs * cand + cc
        hit = ((cp == sp) & (cm == sm) & ~miss) | (np.abs(h) <= 1e-15)
        up = hit | (h >= 0.0)
        dn = hit | ~up
        r = live[up]
        hi[r], hi_p[r], hi_m[r], hi_s[r], hi_c[r] = cand[up], cp[up], cm[up], cs[up], cc[up]
        r = live[dn]
        lo[r], lo_p[r], lo_m[r], lo_s[r], lo_c[r] = cand[dn], cp[dn], cm[dn], cs[dn], cc[dn]

    x = np.clip(np.nan_to_num(newton(hi_s, hi_c)), lo, hi)
    gp, gm = g(rows, x, hi_p, hi_m)
    if fz is not None:
        gp, gm = np.where(hi_p < 0, fz, gp), np.where(hi_m < 0, fz, gm)
    return x, np.maximum(gp, gm), hi_p, hi_m


def fugal_apply(f: GridFunction) -> GridFunction:
    """Apply the one-step minimax operator to a grid function.

    Endpoints are pinned to 1 (= |z| there); interior nodes run the
    inf-max-inf exactly on the envelopes of lines (see module notes).
    """
    N, z = f.resolution, f.grid
    if np.any(f.values < np.abs(z) - 1e-9):
        raise ValueError("operator input must dominate |z| pointwise")
    nodes = np.arange(1, N)
    out = np.ones(N + 1)
    _, out[nodes], _, _ = _crossing_root(_envelopes(f), z[nodes], nodes, nodes)
    return GridFunction(N, out)


# ----------------------------------------------------------------------
# pointwise witnesses (policy extraction, closed-form cross-checks)
# ----------------------------------------------------------------------

def operator_witness(f: GridFunction, z):
    """Operator witnesses at every bias in the array-like z, in one batch:
    the arrays (x, value, z_plus, z_minus) of outer minimizers, operator
    values and inner minimizers per adversary sign (see module notes), from
    which the policy reads its block fractions.  ``ValueError`` unless every
    |z| < 1.  Where the inner objective is flat over a range of z' (where
    T f = f at the bias), every z' in it ties: which one is reported is
    unspecified, and only its value is defined."""
    z = np.asarray(z, dtype=float)
    if not (np.abs(z) < 1.0).all():   # NaN fails the comparison too
        raise ValueError("witness queries need |z| < 1")
    grid, v, N = f.grid, f.values, f.resolution
    j0 = np.searchsorted(grid, z, side="left")        # w = +1 nodes j >= j0
    j1 = np.searchsorted(grid, z, side="right") - 1   # w = -1 nodes j <= j1
    # off the grid the candidate z' = z is no node line (on it, it is node j0)
    fz = np.where(j0 > j1, np.interp(z, grid, v), np.nan)
    x, value, jp, jm = _crossing_root(_envelopes(f), z, j0, j1, fz)
    x[np.abs(x) <= 1e-13] = 0.0   # tie rule: prefer the action 0

    def at_node(w, j):   # the branch objective ((1+wz) f(z') + x (z'-z)) / (1+z'w)
        return (((1.0 + w * z) * v[j] + x * (grid[j] - z))
                / np.maximum(1.0 + w * grid[j], DENOM_CLAMP))

    def inner(w, j, first, last):
        """Inner minimizer at x: z where the candidate is active (j = -1),
        else the argmin node j, sharpened from O(step) to O(step^2) by a
        three-point parabola through it and its neighbours."""
        jl, jr = np.maximum(j - 1, 0), np.minimum(j + 1, N)
        za, zb, zc = grid[jl], grid[j], grid[jr]
        ya, yb, yc = at_node(w, jl), at_node(w, j), at_node(w, jr)
        dba, dbc = zb - za, zb - zc
        den = dba * (yb - yc) - dbc * (yb - ya)
        fit = (first < j) & (j < last) & (np.abs(den) >= 1e-300)
        den[~fit] = 1.0
        vertex = zb - 0.5 * (dba * dba * (yb - yc) - dbc * dbc * (yb - ya)) / den
        fit &= (za < vertex) & (vertex < zc)
        return np.where(j < 0, z, np.where(fit, vertex, zb))

    return x, value, inner(1, jp, j0, N), inner(-1, jm, 0, j1)


# ----------------------------------------------------------------------
# solved tables and policies
# ----------------------------------------------------------------------

#: the most nodes a policy holds: 2^16 - 1, budget K = 16.  Solving and
#: writing that policy at N = 500 peaks at 40 MiB (tracemalloc), and labctl
#: fugal at 81 MiB RSS in 0.3 s (2-core host); each +1 in K doubles the
#: nodes and about doubles that peak.
MAX_POLICY_NODES = 2 ** 16 - 1


def child_row(row: int, sign: int) -> int:
    """Row of the child on ``sign`` of the node at ``row``: level-l code c
    goes to level l + 1 with code c + [sign = -1] 2^l."""
    width = 1 << ((row + 1).bit_length() - 1)   # 2^l, the level's width
    return row + width if sign > 0 else row + 2 * width


@dataclass(frozen=True)
class FugalPolicy:
    """Optimal fugal strategy: per sign prefix, the action and the block
    fractions M*_i/T (valid for every horizon by T-independence).  ``nodes``
    is a read-only (2^K - 1, 3) array of rows (x, m_plus, m_minus): the
    action of the block the prefix opens and its fraction if the recorded
    sign is +1 or -1.  The prefix (s_1..s_l) sits at row
    2^l - 1 + sum_j [s_j = -1] 2^(j-1), so level by level with the children
    of a level's code c at c and c + 2^l (:func:`child_row`); the root, the
    empty prefix, is row 0."""

    budget_K: int
    resolution: int
    nodes: np.ndarray

    def path_fraction_sum(self, signs) -> float:
        """Sum of block fractions along one full sign path (should be 1)."""
        signs = tuple(signs)
        if len(signs) != self.budget_K:
            raise ValueError("need one sign per block")
        total, row = 0.0, 0
        for s in signs:
            total += self.nodes.item(row, 1 if s > 0 else 2)
            row = child_row(row, s)
        return total


def _policy_size(budget_K: int) -> int:
    """The 2^K - 1 nodes of a budget-K policy.  ``ValueError`` below K = 1,
    ``CapacityError`` past ``MAX_POLICY_NODES``."""
    if budget_K < 1:
        raise ValueError("budget_K must be >= 1")
    if budget_K > MAX_POLICY_NODES.bit_length():   # 2^K - 1 > MAX_POLICY_NODES
        raise CapacityError(f"a budget-{budget_K} policy has over MAX_POLICY_NODES = "
                            f"{MAX_POLICY_NODES} nodes")
    return 2 ** budget_K - 1


def extract_policy(tables: list[GridFunction], budget_K: int) -> FugalPolicy:
    """Walk the recursion tree level by level recording argmin witnesses,
    one batched witness call per level, whose arrays fill the level's rows
    of ``FugalPolicy.nodes`` in place.

    At block i (k = budget_K - i + 1 blocks remaining, current bias z,
    remaining horizon fraction tau) the witness of the operator applied to
    u_{k-1} at z gives the action x*_i and, per sign w, the inner minimizer
    z'; the block fraction of the whole horizon is tau * (z'-z)/(w+z') and
    the child state is (z', tau - fraction).  The final block takes the
    whole remainder with action -z, so fractions telescope to exactly 1
    along every sign path.  A bias at |z| >= 1 is absorbing: the action
    -sign(z) holds the value at |z| whatever the adversary does, so the
    current block takes everything that is left.  ``CapacityError`` past
    ``MAX_POLICY_NODES``.
    """
    nodes = np.empty((_policy_size(budget_K), 3))
    z, tau = np.zeros(1), np.ones(1)   # per code of the level, in order
    for blocks_left in range(budget_K, 0, -1):
        absorbed = np.abs(z) >= 1.0 - 1e-12
        x = np.where(absorbed, -np.copysign(1.0, z), -z + 0.0)
        frac = {1: tau.copy(), -1: tau.copy()}
        z_next = {1: z.copy(), -1: z.copy()}
        live = np.flatnonzero(~absorbed)
        if blocks_left > 1 and live.size:
            x[live], _, zp, zm = operator_witness(tables[blocks_left - 2], z[live])
            for s, zn in ((1, zp), (-1, zm)):
                frac[s][live] = tau[live] * np.clip((zn - z[live]) / (s + zn), 0.0, 1.0)
                z_next[s][live] = zn
        level = nodes[z.size - 1:2 * z.size - 1]
        level[:, 0], level[:, 1], level[:, 2] = x, frac[1], frac[-1]
        if blocks_left == 1:
            break
        z = np.concatenate((z_next[1], z_next[-1]))
        tau = np.concatenate([np.where(absorbed, 0.0, tau - frac[s]) for s in (1, -1)])
    nodes.setflags(write=False)
    return FugalPolicy(budget_K=budget_K, resolution=tables[0].resolution, nodes=nodes)


_table_cache: dict[int, list[GridFunction]] = {}
_policy_cache: dict[tuple[int, int], FugalPolicy] = {}


def solve_tables(budget_K: int, resolution: int = DEFAULT_RESOLUTION) -> list[GridFunction]:
    """u_1 .. u_K grids at the given resolution (memoized per resolution)."""
    if budget_K < 1:
        raise ValueError("budget_K must be >= 1")
    if resolution < 100:
        raise ValueError("resolution must be at least 100")
    cached = _table_cache.get(resolution, [])
    tables = list(cached or [GridFunction(resolution, np.ones(resolution + 1))])
    while len(tables) < budget_K:
        tables.append(fugal_apply(tables[-1]))
    if len(tables) > len(cached):   # publish whole: no caller sees a half-extended list
        _table_cache[resolution] = tables
    return tables[:budget_K]


def u_k_solve(budget_K: int, resolution: int = DEFAULT_RESOLUTION
              ) -> tuple[list[GridFunction], FugalPolicy]:
    """Solve the recursion up to the given budget and extract the policy.
    ``CapacityError`` past ``MAX_POLICY_NODES``, before any table is solved."""
    _policy_size(budget_K)
    tables = solve_tables(budget_K, resolution)
    key = (budget_K, resolution)
    policy = _policy_cache.get(key)
    if policy is None:
        policy = extract_policy(tables, budget_K)
        _policy_cache[key] = policy
    return tables, policy


# ----------------------------------------------------------------------
# dumps
# ----------------------------------------------------------------------

def write_grid_csv(tables: list[GridFunction], path: str) -> None:
    """Rows ``z, u_1, ..., u_K`` over the grid nodes, each value ``%.17g``."""
    rows = np.stack([tables[0].grid] + [t.values for t in tables], axis=1).tolist()
    header = "z," + ",".join(f"u_{k}" for k in range(1, len(tables) + 1)) + "\n"
    row = ",".join(["%.17g"] * (len(tables) + 1)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "".join([row % tuple(r) for r in rows]))


#: json's spelling of the floats whose repr is not JSON
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_JSON_NODE = '\n    "%s": {\n      "m_minus": %s,\n      "m_plus": %s,\n      "x": %s\n    }'


def _json_floats(a: np.ndarray) -> list[str]:
    """json's spelling of each float of the 1-d array a, each distinct
    64-bit pattern spelled once (so 0.0 and -0.0 stay apart).  Patterns are
    told apart by hashing: np.unique's int64 sort raised the peak RSS of
    repeated labctl fugal runs at K = 8, N = 2000 by 0.8 MiB."""
    bits = a.view(np.int64).tolist()
    distinct = dict(zip(bits, a.tolist()))   # one float per pattern
    spelled = {b: _JSON_SPECIAL.get(s, s) for b, s in zip(distinct, map(repr, distinct.values()))}
    return list(map(spelled.__getitem__, bits))


def write_policy_json(policy: FugalPolicy, path: str) -> None:
    """The policy as the JSON object ``{"budget_K", "nodes", "resolution"}``,
    ``nodes`` mapping each sign-prefix string (``"+-"``) to ``{"m_minus",
    "m_plus", "x"}``: the bytes ``json.dump`` writes of that dict with
    ``indent=2, sort_keys=True``, and a newline, without building the dict.
    The prefix strings are built level by level in row order and sorted
    once; each distinct 64-bit pattern among the floats is spelled once
    (so 0.0 and -0.0 stay apart), and one ``%`` writes every node."""
    keys = [""]
    for level in range(policy.budget_K - 1):
        keys += [key + s for s in "+-" for key in keys[-(1 << level):]]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    values = _json_floats(policy.nodes[order, ::-1].ravel())   # m_minus, m_plus, x per node
    cells = [None] * (4 * len(order))
    cells[0::4] = [keys[row] for row in order]
    cells[1::4], cells[2::4], cells[3::4] = values[0::3], values[1::3], values[2::3]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "budget_K": %s,\n  "nodes": {' % json.dumps(policy.budget_K))
        fh.write(",".join([_JSON_NODE] * len(order)) % tuple(cells))
        fh.write('\n  },\n  "resolution": %s\n}\n' % json.dumps(policy.resolution))
