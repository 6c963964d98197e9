"""Independent reference implementations used to cross-check the package.

Everything in this module is written from first principles against the
benchmark coefficient tables and textbook definitions, on purpose without
importing anything from chpdispatch. Slow and obvious beats fast and clever
here: these are the oracles the real implementations must agree with.
The random convex regions of the property tests (random_region) are
drawn here too, so the geometry and the repair tests share one strategy.
"""
import itertools
import math

import numpy as np
from hypothesis import strategies as st


# ---------------------------------------------------------------------------
# Dispatch cost / emission / loss formulas, one function per test system,
# transcribed directly from the published coefficient tables.
# ---------------------------------------------------------------------------

def sys1_cost(p1, o2, h2, o3, h3, t4):
    c1 = 50.0 * p1
    c2 = 2650 + 14.5 * o2 + 0.0345 * o2 ** 2 + 4.2 * h2 + 0.03 * h2 ** 2 + 0.031 * o2 * h2
    c3 = 1250 + 36 * o3 + 0.0435 * o3 ** 2 + 0.6 * h3 + 0.027 * h3 ** 2 + 0.011 * o3 * h3
    c4 = 23.4 * t4
    return c1 + c2 + c3 + c4


def sys1_emission(p1, o2, h2, o3, h3, t4):
    return 0.0


def sys2_cost(p1, o2, h2, o3, h3, o4, h4, t5):
    c1 = 254.8863 + 7.6997 * p1 + 0.00172 * p1 ** 2 + 0.000115 * p1 ** 3
    c2 = 1250 + 36 * o2 + 0.0435 * o2 ** 2 + 0.6 * h2 + 0.027 * h2 ** 2 + 0.011 * o2 * h2
    c3 = 2650 + 34.5 * o3 + 0.1035 * o3 ** 2 + 2.203 * h3 + 0.025 * h3 ** 2 + 0.051 * o3 * h3
    c4 = 1565 + 20 * o4 + 0.072 * o4 ** 2 + 2.3 * h4 + 0.02 * h4 ** 2 + 0.04 * o4 * h4
    c5 = 950 + 2.0109 * t5 + 0.038 * t5 ** 2
    return c1 + c2 + c3 + c4 + c5


def sys2_emission(p1, o2, h2, o3, h3, o4, h4, t5):
    e1 = 1e-4 * (4.091 - 5.554 * p1 + 6.49 * p1 ** 2) + 2e-4 * math.exp(0.02857 * p1)
    return e1 + 0.00165 * o2 + 0.0022 * o3 + 0.0011 * o4 + 0.0017 * t5


def sys3_cost(p1, p2, p3, p4, o5, h5, o6, h6, t7):
    c1 = 25 + 2.0 * p1 + 0.008 * p1 ** 2 + abs(100 * math.sin(0.042 * (10 - p1)))
    c2 = 60 + 1.8 * p2 + 0.003 * p2 ** 2 + abs(140 * math.sin(0.04 * (20 - p2)))
    c3 = 100 + 2.1 * p3 + 0.0012 * p3 ** 2 + abs(160 * math.sin(0.038 * (30 - p3)))
    c4 = 120 + 2.0 * p4 + 0.001 * p4 ** 2 + abs(180 * math.sin(0.037 * (40 - p4)))
    c5 = 2650 + 14.5 * o5 + 0.0345 * o5 ** 2 + 4.2 * h5 + 0.03 * h5 ** 2 + 0.031 * o5 * h5
    c6 = 1250 + 36 * o6 + 0.0435 * o6 ** 2 + 0.6 * h6 + 0.027 * h6 ** 2 + 0.011 * o6 * h6
    c7 = 950 + 2.0109 * t7 + 0.038 * t7 ** 2
    return c1 + c2 + c3 + c4 + c5 + c6 + c7


def sys3_emission(p1, p2, p3, p4, o5, h5, o6, h6, t7):
    e1 = 1e-4 * (4.091 - 5.554 * p1 + 6.49 * p1 ** 2) + 2e-4 * math.exp(0.02857 * p1)
    e2 = 1e-4 * (2.543 - 6.047 * p2 + 5.638 * p2 ** 2) + 5e-4 * math.exp(0.03333 * p2)
    e3 = 1e-4 * (4.258 - 5.094 * p3 + 4.586 * p3 ** 2) + 1e-6 * math.exp(0.08 * p3)
    e4 = 1e-4 * (5.326 - 3.55 * p4 + 3.37 * p4 ** 2) + 2e-3 * math.exp(0.02 * p4)
    return e1 + e2 + e3 + e4 + 0.00165 * o5 + 0.00165 * o6 + 0.0018 * t7


_SYS3_B = [
    [49, 14, 15, 15, 20, 25],
    [14, 45, 16, 20, 18, 19],
    [15, 16, 39, 10, 12, 15],
    [15, 20, 10, 40, 14, 11],
    [20, 18, 12, 14, 35, 17],
    [25, 19, 15, 11, 17, 39],
]
_SYS3_B0 = [-0.3908, -0.1297, 0.7047, 0.0591, 0.2161, -0.6635]
_SYS3_B00 = 0.056


def sys3_loss(p1, p2, p3, p4, o5, o6):
    """Triple-sum network loss: thermal block, thermal-cogen cross block
    counted once, cogen block, then the linear and constant terms."""
    p = [p1, p2, p3, p4]
    o = [o5, o6]
    total = 0.0
    for i in range(4):
        for j in range(4):
            total += p[i] * _SYS3_B[i][j] * 1e-6 * p[j]
    for i in range(4):
        for j in range(2):
            total += p[i] * _SYS3_B[i][4 + j] * 1e-6 * o[j]
    for i in range(2):
        for j in range(2):
            total += o[i] * _SYS3_B[4 + i][4 + j] * 1e-6 * o[j]
    g = p + o
    for i in range(6):
        total += _SYS3_B0[i] * 1e-3 * g[i]
    return total + _SYS3_B00


# Box bounds used by the random-dispatch fidelity sweeps. Cogeneration
# bounds are the bounding boxes of the operating regions; the formula
# oracles do not care about region membership.
SYS1_BOUNDS = [(0, 150), (81, 247), (0, 180), (40, 125.8), (0, 135.6), (0, 2695.2)]
SYS2_BOUNDS = [
    (35, 135),
    (40, 125.8), (0, 135.6),
    (10, 60), (0, 55),
    (78, 105), (0, 24.5),
    (0, 60),
]
SYS3_BOUNDS = [
    (10, 75), (20, 125), (30, 175), (40, 250),
    (81, 247), (0, 180),
    (40, 125.8), (0, 135.6),
    (0, 2695.2),
]


# ---------------------------------------------------------------------------
# Geometry: brute-force point-to-polygon projection by dense boundary
# sampling, a crossing-number membership test, and chords by half-plane
# intersection.
# ---------------------------------------------------------------------------

def polygon_contains_crossing(vertices, point, tol=1e-9):
    """Winding-free membership: the point is inside a convex CCW polygon iff
    it lies on the left of (or on) every edge."""
    v = np.asarray(vertices, float)
    q = np.asarray(point, float)
    n = len(v)
    for i in range(n):
        a = v[i]
        b = v[(i + 1) % n]
        e = b - a
        cross = e[0] * (q[1] - a[1]) - e[1] * (q[0] - a[0])
        if cross < -tol * np.hypot(*e):
            return False
    return True


def polygon_chord_halfplanes(vertices, value, axis, tol=1e-9):
    """Chord of a convex CCW polygon along the line where coordinate `axis`
    equals `value`, as (lo, hi) over the other coordinate, or None when the
    line misses it. Each edge's inner half-plane, cross(b - a, q - a) >= 0,
    cut by the line is a half-line k * s + r >= 0 in the free coordinate s;
    the chord is the intersection of those half-lines."""
    v = np.asarray(vertices, float)
    lo, hi = -math.inf, math.inf
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        e = b - a
        if axis == 1:   # q = (s, value)
            k, r = -e[1], e[0] * (value - a[1]) + e[1] * a[0]
        else:           # q = (value, s)
            k, r = e[0], -e[0] * a[1] - e[1] * (value - a[0])
        if k > 0:
            lo = max(lo, -r / k)
        elif k < 0:
            hi = min(hi, -r / k)
        elif r < -tol * math.hypot(*e):
            return None
    if lo > hi + tol:
        return None
    return lo, hi


def polygon_project_sampled(vertices, point, samples_per_edge=2001, zoom_rounds=8):
    """Nearest boundary point by dense sampling; interior points map to
    themselves. After the coarse pass over each edge the sample window is
    narrowed around the best parameter and re-sampled, so the final
    resolution is edge_length * (2 / samples) ** rounds."""
    v = np.asarray(vertices, float)
    q = np.asarray(point, float)
    if polygon_contains_crossing(vertices, point):
        return q.copy()
    best = None
    best_d = np.inf
    n = len(v)
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        lo, hi = 0.0, 1.0
        for _ in range(zoom_rounds):
            t = np.linspace(lo, hi, samples_per_edge)
            pts = a[None, :] + t[:, None] * (b - a)[None, :]
            d = np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1])
            k = int(np.argmin(d))
            step = (hi - lo) / (samples_per_edge - 1)
            lo, hi = max(0.0, t[k] - step), min(1.0, t[k] + step)
        if d[k] < best_d:
            best_d = d[k]
            best = pts[k]
    return best


def polygon_chord_edges(vertices, values, axis, tol=1e-9):
    """Chords of one convex CCW polygon at a column of values, edge by edge
    as the package computed them before its regions shared one edge table:
    (lo, hi, hit) over the other coordinate. An edge whose `axis` span,
    widened by tol, holds a value meets its line at the clamped
    interpolation point; an edge flat along `axis` gives both its ends."""
    v = np.asarray(vertices, float)
    x = np.asarray(values, float)[None, :]
    other = 1 - axis
    a, b = v, np.roll(v, -1, axis=0)
    d = b - a
    lo_e = np.minimum(a[:, axis], b[:, axis])[:, None]
    hi_e = np.maximum(a[:, axis], b[:, axis])[:, None]
    meets = (x >= lo_e - tol) & (x <= hi_e + tol)
    flat = hi_e - lo_e < 1e-12
    t = np.clip((x - a[:, axis, None]) / np.where(flat, 1.0, d[:, axis, None]),
                0.0, 1.0)
    cut = a[:, other, None] + t * d[:, other, None]
    lo = np.where(flat, np.minimum(a[:, other], b[:, other])[:, None], cut)
    hi = np.where(flat, np.maximum(a[:, other], b[:, other])[:, None], cut)
    return (np.where(meets, lo, np.inf).min(axis=0),
            np.where(meets, hi, -np.inf).max(axis=0), meets.any(axis=0))


def polygon_project_every_row(vertices, points, inside):
    """Projection of an (M, 2) array onto a convex CCW polygon as the
    package computed it before it skipped the rows inside: the nearest foot
    of a perpendicular over every edge for every row, then `inside` rows
    (a boolean mask) put back at distance 0."""
    v = np.asarray(vertices, float)
    q = np.asarray(points, float)
    edges = np.roll(v, -1, axis=0) - v
    rel = q[:, None, :] - v[None, :, :]
    t = np.einsum("mej,ej->me", rel, edges) / np.sum(edges * edges, axis=1)[None, :]
    t = np.clip(t, 0.0, 1.0)
    feet = v[None, :, :] + t[:, :, None] * edges[None, :, :]
    d2 = np.sum((feet - q[:, None, :]) ** 2, axis=2)
    best = np.argmin(d2, axis=1)
    proj = feet[np.arange(len(q)), best]
    dist = np.sqrt(d2[np.arange(len(q)), best])
    proj[inside] = q[inside]
    dist[inside] = 0.0
    return proj, dist


# A strictly convex octagon with two edges flat along each axis: any three
# to six of its vertices, in order, bound a convex counter-clockwise region.
OCTAGON = np.array([(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2),
                    (0, 1)], float)


@st.composite
def random_region(draw):
    """Hypothesis strategy: the vertices of a convex region with 3 to 6
    vertices, scaled and shifted: either some of the octagon's vertices
    (with axis-flat edges) or points at distinct multiples of 10 degrees on
    a circle."""
    n = draw(st.integers(3, 6))
    if draw(st.booleans()):
        unit = OCTAGON[sorted(draw(st.lists(st.integers(0, 7), min_size=n,
                                            max_size=n, unique=True)))]
    else:
        angles = np.radians(10.0 * np.sort(draw(st.lists(
            st.integers(0, 35), min_size=n, max_size=n, unique=True))))
        unit = np.column_stack([np.cos(angles), np.sin(angles)])
    scale = np.array([draw(st.floats(0.5, 200.0)), draw(st.floats(0.5, 200.0))])
    shift = np.array([draw(st.floats(0.0, 300.0)), draw(st.floats(0.0, 300.0))])
    return unit * scale + shift


# ---------------------------------------------------------------------------
# Hypervolume by Monte-Carlo integration (2-D, minimization).
# ---------------------------------------------------------------------------

def hypervolume_mc(points, ref, n_samples=10_000_000, seed=1234):
    pts = np.asarray(points, float)
    pts = pts[np.all(pts <= np.asarray(ref, float), axis=1)]
    if len(pts) == 0:
        return 0.0
    lo = pts.min(axis=0)
    rng = np.random.default_rng(seed)
    box = (ref[0] - lo[0]) * (ref[1] - lo[1])
    hits = 0
    chunk = 1_000_000
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        s = rng.random((m, 2)) * (np.asarray(ref) - lo) + lo
        dominated = np.zeros(m, bool)
        for p in pts:
            dominated |= (s[:, 0] >= p[0]) & (s[:, 1] >= p[1])
        hits += int(dominated.sum())
        remaining -= m
    return box * hits / n_samples


def hypervolume_sweep_loop(points, ref=(1.1, 1.1)):
    """Exact 2-D hypervolume, one point at a time: sort by the first
    objective, then the second, and add a strip (rx - x) * (prev_y - y)
    for each point below the staircase so far, left to right."""
    pts = np.asarray(points, float)
    if pts.size == 0:
        return 0.0
    pts = np.atleast_2d(pts)
    rx, ry = float(ref[0]), float(ref[1])
    pts = pts[(pts[:, 0] < rx) & (pts[:, 1] < ry)]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    area = 0.0
    prev_y = ry
    for x, y in pts[order]:
        if y < prev_y:
            area += (rx - x) * (prev_y - y)
            prev_y = y
    return area


# ---------------------------------------------------------------------------
# Pareto dominance and sorting, O(n^2), straight from the definition.
# ---------------------------------------------------------------------------

def dominates_bruteforce(a, b):
    a = list(a)
    b = list(b)
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


# a violation at or below this counts as zero (the engine's FEASIBILITY_TOL)
FEASIBILITY_TOL = 1e-9


def dominates(a, b, violation_a=0.0, violation_b=0.0):
    """Constraint-aware Pareto dominance, minimization on all axes.

    A lower (effective) violation dominates outright; at equal violation,
    componentwise <= with at least one strict <.
    """
    a = [float(x) for x in np.ravel(a)]
    b = [float(x) for x in np.ravel(b)]
    if len(a) != len(b):
        raise ValueError(f"objective dimensions differ: {len(a)} vs {len(b)}")
    va = 0.0 if violation_a <= FEASIBILITY_TOL else violation_a
    vb = 0.0 if violation_b <= FEASIBILITY_TOL else violation_b
    if va != vb:
        return va < vb
    return dominates_bruteforce(a, b)


def nondominated_fronts_bruteforce(objectives):
    """Peel fronts by repeated O(n^2) scans; returns lists of indices."""
    remaining = list(range(len(objectives)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            if not any(
                dominates_bruteforce(objectives[j], objectives[i])
                for j in remaining
                if j != i
            ):
                front.append(i)
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def fronts_domination_matrix(objectives, violations, tol=1e-9):
    """The engine's former constraint-aware non-dominated sort: build the
    (n, n) matrix D[i, j] = row i dominates row j (a lower violation
    outright, violations at most tol counting as 0; at equal violation,
    componentwise <= with one strict <), then peel one front at a time,
    each the unranked rows no unranked row dominates. Returns the fronts
    as ascending index arrays, best first."""
    objs = np.asarray(objectives, float)
    viol = np.asarray(violations, float)
    v = np.where(viol <= tol, 0.0, viol)
    n = objs.shape[0]
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for col in objs.T:
        le &= col[:, None] <= col[None, :]
        lt |= col[:, None] < col[None, :]
    d = (v[:, None] < v[None, :]) | ((v[:, None] == v[None, :]) & le & lt)
    n_dom = d.sum(axis=0).astype(np.int64)
    unranked = np.ones(n, dtype=bool)
    fronts = []
    while unranked.any():
        cur = np.flatnonzero(unranked & (n_dom == 0))
        fronts.append(cur)
        unranked[cur] = False
        n_dom -= d[cur].sum(axis=0)
        n_dom[~unranked] = np.iinfo(np.int64).max // 2
    return fronts


# ---------------------------------------------------------------------------
# Indicator fitness, literal per-pair evaluation (no vectorization).
# ---------------------------------------------------------------------------

def _single_box_volume(point, ref):
    return math.prod(r - x for x, r in zip(point, ref))


def _pair_union_volume(a, b, ref):
    va = _single_box_volume(a, ref)
    vb = _single_box_volume(b, ref)
    overlap = math.prod(r - max(x, y) for x, y, r in zip(a, b, ref))
    return va + vb - overlap


def indicator_pair_bruteforce(a, b, ref=None):
    """Binary hypervolume-difference indicator between singletons {a},{b}:
    volume argument is I({a},{b}) = how much of b's region a fails to cover."""
    if ref is None:
        ref = [1.1] * len(a)
    weakly_dominates = all(x <= y for x, y in zip(a, b))
    if weakly_dominates:
        return _single_box_volume(b, ref) - _single_box_volume(a, ref)
    return _pair_union_volume(a, b, ref) - _single_box_volume(a, ref)


def pairwise_indicator_ref_max(nobjs, ref=1.1):
    """The engine's I[j, i] matrix on normalized objectives, one pair at a
    time in Python floats, with each overlap side formed as
    ref - max(a, b) and the products taken in objective order, as the
    engine formed them before its overlap used min(ref - a, ref - b).
    I[j, i] = vol(i) - vol(j) when j weakly dominates i, else
    vol(i) - overlap(j, i)."""
    rows = np.asarray(nobjs, float).tolist()
    vols = []
    for a in rows:
        v = ref - a[0]
        for x in a[1:]:
            v = v * (ref - x)
        vols.append(v)
    n = len(rows)
    ind = np.empty((n, n))
    for j, a in enumerate(rows):
        for i, b in enumerate(rows):
            if all(x <= y for x, y in zip(a, b)):
                ind[j, i] = vols[i] - vols[j]
                continue
            overlap = ref - max(a[0], b[0])
            for x, y in zip(a[1:], b[1:]):
                overlap = overlap * (ref - max(x, y))
            ind[j, i] = vols[i] - overlap
    return ind


def _normalized_indicator_matrix(objectives):
    objs = np.asarray(objectives, float)
    lo = objs.min(axis=0)
    hi = objs.max(axis=0)
    span = hi - lo
    norm = np.zeros_like(objs)
    for k in range(objs.shape[1]):
        if span[k] > 0:
            norm[:, k] = (objs[:, k] - lo[k]) / span[k]
    n = len(objs)
    ind = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ind[i, j] = indicator_pair_bruteforce(norm[i], norm[j])
    return ind


def _receiver_scales(ind):
    """Scale for each column: the largest |I| aimed at that individual."""
    n = ind.shape[0]
    scales = []
    for i in range(n):
        c = max(abs(ind[j, i]) for j in range(n) if j != i) if n > 1 else 0.0
        scales.append(c if c > 0 else 1.0)
    return scales


def fitness_bruteforce(objectives, kappa=0.05):
    """Min-max normalize, scale each individual's incoming indicator values
    by their own max |I|, then F(x) = sum over others of
    exp(-I({other},{x}) / (c_x*kappa)). Larger F = worse individual."""
    ind = _normalized_indicator_matrix(objectives)
    c = _receiver_scales(ind)
    n = ind.shape[0]
    fit = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if j != i:
                fit[i] += math.exp(-ind[j, i] / (c[i] * kappa))
    return fit


def environmental_selection_bruteforce(objectives, n_keep, kappa=0.05,
                                       violations=None):
    """Remove the worst individual one at a time, recomputing every
    survivor's fitness from scratch after each removal while keeping the
    initial normalization and scaling fixed. While any survivor has
    violation above 1e-9, the largest-violation one goes (fitness breaks
    ties); otherwise the largest-fitness one (first occurrence on ties).
    Returns surviving indices in original order and the removal order."""
    ind = _normalized_indicator_matrix(objectives)
    c = _receiver_scales(ind)
    n = ind.shape[0]
    if violations is None:
        veff = [0.0] * n
    else:
        veff = [v if v > 1e-9 else 0.0 for v in violations]
    alive = list(range(n))
    removed = []
    while len(alive) > n_keep:
        fits = []
        for i in alive:
            f = sum(
                math.exp(-ind[j, i] / (c[i] * kappa))
                for j in alive
                if j != i
            )
            fits.append(f)
        v_max = max(veff[i] for i in alive)
        if v_max > 0.0:
            cand = [k for k, i in enumerate(alive) if veff[i] == v_max]
            worst_pos = max(cand, key=lambda k: (fits[k], -k))
        else:
            worst_pos = int(np.argmax(fits))
        removed.append(alive[worst_pos])
        alive.pop(worst_pos)
    return alive, removed


def env_select_neumaier(e, veff, n_keep):
    """Sequential reference for the engine's environmental selection, from
    its contribution matrix e (e[j, i]: the term individual j adds to the
    fitness of individual i) and effective violations veff.

    The fitness sums start at zero and take one row of e at a time with a
    Neumaier step, so the compensation holds the sum of the exact rounding
    errors. Each step removes the alive individual with the largest
    violation while any is positive (largest corrected fitness breaking
    ties), else the one with the largest corrected fitness, first on exact
    ties, and subtracts its row the same way. Returns (alive indices in
    original order, corrected fitness after all removals, removal
    order)."""
    def neumaier_add(fit, comp, b):
        t = fit + b
        comp += np.where(np.abs(fit) >= np.abs(b), (fit - t) + b,
                         (b - t) + fit)
        return t

    n = e.shape[0]
    fit = np.zeros(n)
    comp = np.zeros(n)
    for j in range(n):
        fit = neumaier_add(fit, comp, e[j])
    alive = np.ones(n, dtype=bool)
    removal_order = []
    for _ in range(n - n_keep):
        idx = np.flatnonzero(alive)
        corrected = fit[idx] + comp[idx]
        v_max = veff[idx].max()
        if v_max > 0.0:
            cand = veff[idx] == v_max
            worst = idx[cand][np.argmax(corrected[cand])]
        else:
            worst = idx[np.argmax(corrected)]
        alive[worst] = False
        removal_order.append(int(worst))
        fit = neumaier_add(fit, comp, -e[worst])
    return np.flatnonzero(alive), fit + comp, removal_order


# ---------------------------------------------------------------------------
# Crowding distance, literal per-objective loop.
# ---------------------------------------------------------------------------

def crowding_bruteforce(objectives):
    objs = np.asarray(objectives, float)
    n, m = objs.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(objs[:, k], kind="stable")
        fmin = objs[order[0], k]
        fmax = objs[order[-1], k]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if fmax == fmin:
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            if not np.isinf(dist[i]):
                gap = objs[order[pos + 1], k] - objs[order[pos - 1], k]
                dist[i] += gap / (fmax - fmin)
    return dist


def nsga2_select_front_filling(objectives, violations, n, tol=1e-9):
    """NSGA2 survivor selection as the engine made it before its ranking
    was one vector: fronts_domination_matrix's fronts, each with its
    crowding_bruteforce distances; whole fronts, best first and each in
    index order, while they fit in n, then the boundary front by
    descending crowding, the first rows on ties, up to n. Returns (picked
    indices in survivor order, their ranks, their negated crowding)."""
    objs = np.asarray(objectives, float)
    fronts = fronts_domination_matrix(objs, violations, tol)
    rank = np.empty(objs.shape[0], dtype=np.int64)
    crowd = np.empty(objs.shape[0])
    for r, idx in enumerate(fronts):
        rank[idx] = r
        crowd[idx] = crowding_bruteforce(objs[idx])
    chosen = []
    for idx in fronts:
        if len(chosen) + len(idx) <= n:
            chosen.extend(idx.tolist())
        else:
            order = np.argsort(-crowd[idx], kind="stable")
            chosen.extend(idx[order[:n - len(chosen)]].tolist())
            break
    pick = np.array(chosen)
    return pick, rank[pick], -crowd[pick]


def crowding_truncate_recompute(objectives, fronts, n_keep):
    """Keep n_keep rows: whole fronts (index arrays, best first) while they
    fit, then cut the boundary front one row at a time, removing the row
    with the least crowding (the first one on ties) and recomputing
    crowding over the rows left after every removal. Returns the kept
    indices, sorted."""
    objs = np.asarray(objectives, float)
    kept = []
    room = n_keep
    for idx in fronts:
        idx = list(idx)
        while len(idx) > room:
            idx.pop(int(np.argmin(crowding_bruteforce(objs[idx]))))
        kept.extend(idx)
        room -= len(idx)
        if room == 0:
            break
    return sorted(kept)


# ---------------------------------------------------------------------------
# SBX (Deb & Agrawal 1995) and polynomial mutation (Deb & Goyal 1996), one
# pair and one gene at a time, from given uniform draws.
# ---------------------------------------------------------------------------

def sbx_pm_children(pairs, cross, u, swap, mutate, r, lower, upper,
                    sbx_eta, pm_eta):
    """Children rows c1, c2 for each parent pair (a, b), in pair order.

    cross[k]: pair k recombines; u[k][g], swap[k][g]: the SBX spread draw
    and whether gene g is exchanged; mutate[c][g], r[c][g]: whether gene g
    of child c mutates and its draw. Each SBX child is clipped into its
    box before mutation, and again after it."""
    def clip(x, lo, hi):
        return min(max(x, lo), hi)

    kids = []
    for k, (a, b) in enumerate(pairs):
        c1, c2 = [], []
        for g in range(len(a)):
            if cross[k] and swap[k][g]:
                if u[k][g] <= 0.5:
                    beta = math.pow(2.0 * u[k][g], 1.0 / (sbx_eta + 1.0))
                else:
                    beta = math.pow(1.0 / (2.0 * (1.0 - u[k][g])),
                                    1.0 / (sbx_eta + 1.0))
                x1 = 0.5 * ((1.0 + beta) * a[g] + (1.0 - beta) * b[g])
                x2 = 0.5 * ((1.0 - beta) * a[g] + (1.0 + beta) * b[g])
            else:
                x1, x2 = a[g], b[g]
            c1.append(clip(x1, lower[g], upper[g]))
            c2.append(clip(x2, lower[g], upper[g]))
        kids.extend([c1, c2])
    out = []
    for c, child in enumerate(kids):
        row = []
        for g, x in enumerate(child):
            if mutate[c][g]:
                if r[c][g] < 0.5:
                    delta = math.pow(2.0 * r[c][g], 1.0 / (pm_eta + 1.0)) - 1.0
                else:
                    delta = 1.0 - math.pow(2.0 * (1.0 - r[c][g]),
                                           1.0 / (pm_eta + 1.0))
                x = clip(x + delta * (upper[g] - lower[g]), lower[g], upper[g])
            row.append(x)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank p-value by exhaustive sign enumeration (n <= ~16).
# ---------------------------------------------------------------------------

def wilcoxon_enumeration(diffs):
    d = [x for x in diffs if x != 0]
    n = len(d)
    if n == 0:
        return 1.0
    absd = np.abs(d)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    i = 0
    sorted_abs = absd[order]
    pos = 1
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        avg = (pos + (pos + j - i)) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        pos += j - i + 1
        i = j + 1
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)
    w_minus = sum(ranks) - w_plus
    w_small = min(w_plus, w_minus)
    count_le = 0
    for signs in itertools.product([1, -1], repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s > 0)
        if w <= w_small + 1e-12:
            count_le += 1
    p = 2.0 * count_le / 2 ** n
    return min(1.0, p)


# ---------------------------------------------------------------------------
# Empirical attainment on a dense grid.
# ---------------------------------------------------------------------------

def eaf_grid_counts(run_fronts, grid_x, grid_y):
    """For every grid cell (x, y), count how many runs attain it, i.e. have
    a point p with p_cost <= x and p_emission <= y."""
    counts = np.zeros((len(grid_x), len(grid_y)), int)
    for front in run_fronts:
        pts = np.asarray(front, float)
        attained = np.zeros((len(grid_x), len(grid_y)), bool)
        for p in pts:
            attained |= (grid_x[:, None] >= p[0]) & (grid_y[None, :] >= p[1])
        counts += attained
    return counts
