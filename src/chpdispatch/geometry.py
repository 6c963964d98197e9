"""Convex polygon geometry for cogeneration feasible operating regions.

A cogeneration unit cannot choose electric power and useful heat
independently: the admissible (power, heat) pairs form a convex polygon.
This module stores such a polygon and answers the queries the dispatch and
repair code need, each over an array at once: membership of points,
chords (the feasible interval of one coordinate at each of a column of
values of the other), and Euclidean projection of points onto the region;
only the points outside are projected. RegionTable holds the edges of
several regions in one padded table, so one chord query answers a block of
values for all of them (one region's chords are its one-column case).
"""
from __future__ import annotations

import numpy as np

# Signed-distance slack for boundary membership, in MW / MWth.
BOUNDARY_TOL = 1e-9


class ForPolygon:
    """Convex counter-clockwise polygon of feasible (power, heat) points.

    Vertices are validated on construction: at least three, no repeated
    consecutive vertices, counter-clockwise orientation, convex. The
    instance is immutable after construction.
    """

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("region must be a list of (power, heat) pairs")
        if v.shape[0] < 3:
            raise ValueError("region needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("region vertices must be finite")
        ends = np.roll(v, -1, axis=0)
        edges = ends - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(lengths < 1e-12):
            raise ValueError("region has repeated consecutive vertices")
        nxt = np.roll(edges, -1, axis=0)
        turn = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        # Scale-aware convexity test: every turn is a left turn (CCW).
        scale = lengths * np.roll(lengths, -1)
        if np.any(turn < -1e-9 * scale):
            area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
            if area2 < 0:
                raise ValueError("region vertices must be counter-clockwise")
            raise ValueError("region is not convex")

        self._v = v
        self._v.setflags(write=False)
        self._edges = edges
        self._lengths = lengths
        self._edge_dot = np.sum(edges * edges, axis=1)

    @property
    def vertices(self) -> np.ndarray:
        return self._v

    @property
    def power_range(self) -> tuple[float, float]:
        return float(self._v[:, 0].min()), float(self._v[:, 0].max())

    @property
    def heat_range(self) -> tuple[float, float]:
        return float(self._v[:, 1].min()), float(self._v[:, 1].max())

    # -- membership ---------------------------------------------------------

    def contains_many(self, points: np.ndarray, tol: float = BOUNDARY_TOL) -> np.ndarray:
        """Vectorized membership test for an (M, 2) array of points."""
        q = np.atleast_2d(np.asarray(points, float))
        rel_p = q[:, None, 0] - self._v[None, :, 0]
        rel_h = q[:, None, 1] - self._v[None, :, 1]
        cross = self._edges[None, :, 0] * rel_h - self._edges[None, :, 1] * rel_p
        return np.all(cross >= -tol * self._lengths[None, :], axis=1)

    # -- projection ---------------------------------------------------------

    def project_many(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Euclidean projection of an (M, 2) array onto the polygon.

        Returns (projected points, distances); interior points project to
        themselves with distance 0, and only the points outside are
        projected, each on its own.
        """
        q = np.atleast_2d(np.asarray(points, float))
        proj = q.copy()
        dist = np.zeros(len(q))
        out = np.flatnonzero(~self.contains_many(q))
        if out.size:
            # Candidate feet of perpendiculars on every edge segment.
            rel = q[out, None, :] - self._v[None, :, :]
            t = np.einsum("mej,ej->me", rel, self._edges) / self._edge_dot[None, :]
            t = np.clip(t, 0.0, 1.0)
            feet = self._v[None, :, :] + t[:, :, None] * self._edges[None, :, :]
            d2 = np.sum((feet - q[out, None, :]) ** 2, axis=2)
            best = np.argmin(d2, axis=1)
            proj[out] = feet[np.arange(out.size), best]
            dist[out] = np.sqrt(d2[np.arange(out.size), best])
        return proj, dist

    def __repr__(self) -> str:
        return f"ForPolygon({self._v.tolist()})"


class RegionTable:
    """The edges of several convex regions in one table, for chord queries
    on all of them at once. Region u is column u; a region with fewer edges
    than the largest is padded with edges that never meet a line. The
    table is read-only; its arrays are (edges, 1, regions), so that a
    block of values (rows, regions) broadcasts against them."""

    def __init__(self, regions):
        n = max((len(v) for v in regions), default=3)
        a = np.zeros((n, len(regions), 2))
        b = np.zeros_like(a)
        real = np.zeros((n, len(regions)), bool)
        for u, v in enumerate(regions):
            a[:len(v), u] = v
            b[:len(v), u] = np.roll(v, -1, axis=0)
            real[:len(v), u] = True
        d = b - a
        self._axes = []
        for axis in (0, 1):
            other = 1 - axis
            lo_e = np.minimum(a[..., axis], b[..., axis])
            hi_e = np.maximum(a[..., axis], b[..., axis])
            flat = hi_e - lo_e < 1e-12
            fields = (np.where(real, lo_e - BOUNDARY_TOL, np.inf),
                      np.where(real, hi_e + BOUNDARY_TOL, -np.inf),
                      a[..., axis], np.where(flat, 1.0, d[..., axis]),
                      a[..., other], d[..., other], flat,
                      np.minimum(a[..., other], b[..., other]),
                      np.maximum(a[..., other], b[..., other]))
            for f in fields:
                f.setflags(write=False)
            self._axes.append(tuple(f[:, None, :] for f in fields))

    def chord_bounds(self, values, axis: int):
        """Chords of every region along lines where coordinate `axis` (0
        power, 1 heat) is fixed: values is an (R, regions) array and the
        result (lo, hi) has its shape, over the other coordinate. An edge
        whose `axis` span, widened by BOUNDARY_TOL, holds a value meets its
        line at the clamped interpolation point; an edge flat along `axis`
        contributes both of its ends. Where no edge meets the line, lo is
        +inf and hi is -inf, so a line is met exactly where lo <= hi."""
        meet_lo, meet_hi, start, step, o_start, o_step, flat, o_lo, o_hi = \
            self._axes[axis]
        x = values[None]
        meets = (x >= meet_lo) & (x <= meet_hi)
        t = np.clip((x - start) / step, 0.0, 1.0)
        cut = o_start + t * o_step
        lo = np.where(flat, o_lo, cut)
        hi = np.where(flat, o_hi, cut)
        return (np.where(meets, lo, np.inf).min(axis=0),
                np.where(meets, hi, -np.inf).max(axis=0))
