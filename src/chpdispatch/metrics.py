"""Front quality metrics: exact 2-D hypervolume and the binary hypervolume
indicator, normalized hypervolume, spread, empirical attainment surfaces,
and the Wilcoxon signed-rank test for paired runs.

Normalization bounds are supplied externally (usually the componentwise
min/max over the union of all compared fronts) so that paired comparisons
share a basis. Absolute metric values depend on that basis; cross-
algorithm comparisons on a shared basis do not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HV_REFERENCE = (1.1, 1.1)
_EXACT_WILCOXON_MAX_N = 20


def _points_of(front) -> np.ndarray:
    pts = getattr(front, "objectives", front)
    pts = np.asarray(pts, float)
    if pts.size == 0:
        return pts.reshape(0, 2)
    return np.atleast_2d(pts)


@dataclass(frozen=True, eq=False)
class NormalizationBounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, float).ravel()
        hi = np.asarray(self.upper, float).ravel()
        if lo.shape != hi.shape:
            raise ValueError("bounds lower/upper must have equal length")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("bounds must satisfy min < max per objective")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def from_fronts(cls, fronts) -> "NormalizationBounds":
        """Componentwise min/max over the union of the given fronts."""
        pts = np.vstack([_points_of(f) for f in fronts])
        if pts.shape[0] == 0:
            raise ValueError("cannot derive bounds from empty fronts")
        return cls(lower=pts.min(axis=0), upper=pts.max(axis=0))

    def normalize(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, float))
        return (pts - self.lower) / (self.upper - self.lower)


def hypervolume_2d(points, ref=HV_REFERENCE) -> float:
    """Exact area dominated by a 2-D minimization point set within the
    reference box, by sweep over the cost axis."""
    pts = np.asarray(points, float)
    if pts.size == 0:
        return 0.0
    pts = np.atleast_2d(pts)
    if pts.shape[1] != 2:
        raise ValueError("hypervolume_2d expects points with 2 objectives")
    rx, ry = float(ref[0]), float(ref[1])
    pts = pts[(pts[:, 0] < rx) & (pts[:, 1] < ry)]
    if pts.shape[0] == 0:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    area = 0.0
    prev_y = ry
    for x, y in pts[order]:
        if y < prev_y:
            area += (rx - x) * (prev_y - y)
            prev_y = y
    return area


def indicator_ihd(a_set, b_set, ref=HV_REFERENCE) -> float:
    """Binary hypervolume indicator I(A, B): the volume by which B would
    have to shrink the advantage of A. When A weakly dominates B the value
    is IH(B) - IH(A) (non-positive); otherwise the volume dominated by B
    but not by A."""
    a = np.atleast_2d(np.asarray(a_set, float))
    b = np.atleast_2d(np.asarray(b_set, float))
    hv_a = hypervolume_2d(a, ref)
    covered = all(
        any(np.all(row_a <= row_b) for row_a in a) for row_b in b
    )
    if covered:
        return hypervolume_2d(b, ref) - hv_a
    return hypervolume_2d(np.vstack([a, b]), ref) - hv_a


def hv_metric(front, bounds: NormalizationBounds) -> float:
    """Hypervolume of the normalized front against reference (1.1, 1.1).
    Points falling outside the unit box after normalization are discarded."""
    pts = _points_of(front)
    if pts.shape[0] == 0:
        return 0.0
    norm = bounds.normalize(pts)
    inside = np.all((norm >= 0.0) & (norm <= 1.0), axis=1)
    norm = norm[inside]
    if norm.shape[0] == 0:
        return 0.0
    return hypervolume_2d(norm, HV_REFERENCE)


def spread_delta(front, bounds: NormalizationBounds) -> float | None:
    """Distribution uniformity of a normalized front (lower is better).

    Sorts by the first objective, measures consecutive Euclidean gaps d_i
    and the distances d_f, d_l from the two extreme points to the corner
    references (0, 1) and (1, 0):

        (d_f + d_l + sum |d_i - mean|) / (d_f + d_l + (n - 1) * mean)

    Undefined (None) for fronts with fewer than 2 points.
    """
    pts = _points_of(front)
    if pts.shape[0] < 2:
        return None
    norm = bounds.normalize(pts)
    order = np.lexsort((norm[:, 1], norm[:, 0]))
    norm = norm[order]
    gaps = np.linalg.norm(np.diff(norm, axis=0), axis=1)
    mean_gap = gaps.mean()
    d_first = float(np.linalg.norm(norm[0] - np.array([0.0, 1.0])))
    d_last = float(np.linalg.norm(norm[-1] - np.array([1.0, 0.0])))
    denom = d_first + d_last + gaps.shape[0] * mean_gap
    if denom == 0.0:
        return 0.0
    return float((d_first + d_last + np.abs(gaps - mean_gap).sum()) / denom)


def _staircase_min(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """For each threshold x, the least second objective among points whose
    first objective is <= x; +inf where none qualify."""
    if points.shape[0] == 0:
        return np.full(xs.shape[0], np.inf)
    order = np.argsort(points[:, 0], kind="stable")
    px = points[order, 0]
    running = np.minimum.accumulate(points[order, 1])
    pos = np.searchsorted(px, xs, side="right")
    out = np.full(xs.shape[0], np.inf)
    hit = pos > 0
    out[hit] = running[pos[hit] - 1]
    return out


def eaf_surfaces(runs, levels) -> dict[float, np.ndarray]:
    """Empirical attainment surfaces of a set of run fronts.

    The k%-level surface bounds the region weakly dominated by at least
    k% of the runs: at each breakpoint of the combined cost axis it takes
    the ceil(k * R / 100)-th smallest per-run attained emission. Returns
    {level: (m, 2) polyline}, breakpoints with no attainment dropped.
    """
    runs = list(runs)
    if len(runs) < 2:
        raise ValueError("attainment surfaces need at least 2 runs")
    levels = [float(v) for v in levels]
    for lv in levels:
        if not 0 < lv <= 100:
            raise ValueError(f"attainment level {lv} outside (0, 100]")
    fronts = [_points_of(r) for r in runs]
    xs = np.unique(np.concatenate([f[:, 0] for f in fronts]))
    attained = np.vstack([_staircase_min(f, xs) for f in fronts])  # (R, m)
    attained.sort(axis=0)
    n_runs = len(runs)
    out = {}
    for lv in levels:
        need = int(math.ceil(lv * n_runs / 100.0))
        ys = attained[need - 1]
        finite = np.isfinite(ys)
        out[lv] = np.column_stack([xs[finite], ys[finite]])
    return out


def _exact_small_tail(double_ranks: np.ndarray, double_w: int) -> float:
    """P(W <= w) for the null sign-flip distribution, by subset-sum count
    over integer (doubled) ranks."""
    total = int(double_ranks.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in double_ranks:
        r = int(r)
        counts[r:] += counts[:total + 1 - r]
    return float(counts[:double_w + 1].sum() / counts.sum())


def wilcoxon_signed_rank(paired_samples, alpha: float = 0.05,
                         ) -> tuple[float, bool]:
    """Two-sided Wilcoxon signed-rank test on paired scalars.

    Zero differences are dropped; ties get average ranks. Exact null
    distribution up to 20 effective pairs, normal approximation with tie
    correction and continuity correction beyond. Returns (p, p < alpha).
    """
    pairs = np.asarray(list(paired_samples), float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("paired_samples must be a sequence of (a, b) pairs")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    diffs = pairs[:, 0] - pairs[:, 1]
    diffs = diffs[diffs != 0.0]
    n = diffs.shape[0]
    if n == 0:
        return 1.0, False

    mag = np.abs(diffs)
    order = np.argsort(mag, kind="stable")
    ranks = np.empty(n)
    sorted_mag = mag[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_mag[j + 1] == sorted_mag[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1

    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w_small = min(w_plus, w_minus)

    if n <= _EXACT_WILCOXON_MAX_N:
        double_ranks = np.rint(2.0 * ranks).astype(np.int64)
        double_w = int(math.floor(2.0 * w_small + 1e-9))
        p = min(1.0, 2.0 * _exact_small_tail(double_ranks, double_w))
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(mag, return_counts=True)
        var -= (tie_counts.astype(float) ** 3 - tie_counts).sum() / 48.0
        z = (w_small - mu + 0.5) / math.sqrt(var)
        p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return p, p < alpha
