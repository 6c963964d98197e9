"""Convex polygon geometry for cogeneration feasible operating regions.

A cogeneration unit cannot choose electric power and useful heat
independently: the admissible (power, heat) pairs form a convex polygon.
This module stores such a polygon and answers the queries the dispatch and
repair code need, each over an array at once: membership of points,
chords (the feasible interval of one coordinate at each of a column of
values of the other), and Euclidean projection of points onto the region.
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
        self._ends = ends
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

    # -- chords -------------------------------------------------------------

    def chord_bounds(self, values, axis: int):
        """Chord of the polygon along lines where coordinate `axis` (0 power,
        1 heat) is fixed at each of `values`: (lo, hi, hit) arrays over the
        other coordinate. An edge whose `axis` span, widened by
        BOUNDARY_TOL, holds a value meets its line at the clamped
        interpolation point; an edge flat along `axis` contributes both of
        its ends. Where no edge meets the line, hit is False, lo is +inf and
        hi is -inf."""
        x = np.asarray(values, float)[None, :]
        other = 1 - axis
        a, b, d = self._v, self._ends, self._edges
        lo_e = np.minimum(a[:, axis], b[:, axis])[:, None]
        hi_e = np.maximum(a[:, axis], b[:, axis])[:, None]
        meets = (x >= lo_e - BOUNDARY_TOL) & (x <= hi_e + BOUNDARY_TOL)
        flat = hi_e - lo_e < 1e-12
        t = np.clip((x - a[:, axis, None]) / np.where(flat, 1.0, d[:, axis, None]),
                    0.0, 1.0)
        cut = a[:, other, None] + t * d[:, other, None]
        lo = np.where(flat, np.minimum(a[:, other], b[:, other])[:, None], cut)
        hi = np.where(flat, np.maximum(a[:, other], b[:, other])[:, None], cut)
        return (np.where(meets, lo, np.inf).min(axis=0),
                np.where(meets, hi, -np.inf).max(axis=0), meets.any(axis=0))

    # -- projection ---------------------------------------------------------

    def project_many(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Euclidean projection of an (M, 2) array onto the polygon.

        Returns (projected points, distances); interior points project to
        themselves with distance 0.
        """
        q = np.atleast_2d(np.asarray(points, float))
        inside = self.contains_many(q)
        # Candidate feet of perpendiculars on every edge segment.
        rel = q[:, None, :] - self._v[None, :, :]
        t = np.einsum("mej,ej->me", rel, self._edges) / self._edge_dot[None, :]
        t = np.clip(t, 0.0, 1.0)
        feet = self._v[None, :, :] + t[:, :, None] * self._edges[None, :, :]
        d2 = np.sum((feet - q[:, None, :]) ** 2, axis=2)
        best = np.argmin(d2, axis=1)
        proj = feet[np.arange(len(q)), best]
        dist = np.sqrt(d2[np.arange(len(q)), best])
        proj[inside] = q[inside]
        dist[inside] = 0.0
        return proj, dist

    def __repr__(self) -> str:
        return f"ForPolygon({self._v.tolist()})"
