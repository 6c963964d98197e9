import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chpdispatch import ForPolygon, load_system
from chpdispatch.geometry import BOUNDARY_TOL, RegionTable

from oracles import (polygon_chord_edges, polygon_chord_halfplanes,
                     polygon_contains_crossing, polygon_project_every_row,
                     polygon_project_sampled, random_region)

# The two cogeneration regions of the first test system and the remaining
# shapes from systems 2/3 cover a quad, pentagons and small quads.
QUAD = [(98.8, 0.0), (247.0, 0.0), (215.0, 180.0), (81.0, 104.8)]
PENTA = [(44.0, 0.0), (125.8, 0.0), (125.8, 32.4), (110.2, 135.6), (40.0, 75.0)]
SMALL = [(20.0, 0.0), (60.0, 0.0), (45.0, 55.0), (10.0, 40.0)]
NARROW = [(86.0, 0.0), (105.0, 0.0), (88.0, 24.5), (78.0, 22.0)]

ALL_SHAPES = [QUAD, PENTA, SMALL, NARROW]

# the shapes above plus every region of the bundled systems
REGIONS = [np.asarray(v, float) for v in ALL_SHAPES] + [
    u.region.vertices for name in ("system1", "system2", "system3")
    for u in load_system(name).cogen_units]


def _chords(verts, values, axis):
    """(lo, hi) chords of one region: the one-column case of a RegionTable
    query. A line meets the region where lo <= hi."""
    lo, hi = RegionTable([np.asarray(verts, float)]).chord_bounds(
        np.asarray(values, float)[:, None], axis)
    return lo[:, 0], hi[:, 0]


# Derandomized, so every run of the suite draws the same examples.
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=200)


def _contains(poly, point, tol=1e-9):
    return bool(poly.contains_many(np.array([point], float), tol)[0])


def _project(poly, point):
    return tuple(poly.project_many(np.array([point], float))[0][0])


class TestConstruction:
    def test_valid_shapes(self):
        for verts in ALL_SHAPES:
            poly = ForPolygon(verts)
            assert poly.vertices.shape == (len(verts), 2)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            ForPolygon([(0, 0), (1, 0)])

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError, match="counter-clockwise"):
            ForPolygon(list(reversed(PENTA)))

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError, match="convex"):
            ForPolygon([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            ForPolygon([(0, 0), (0, 0), (1, 0), (0, 1)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ForPolygon([(0, 0), (np.inf, 0), (0, 1)])

    def test_ranges(self):
        poly = ForPolygon(PENTA)
        assert poly.power_range == (40.0, 125.8)
        assert poly.heat_range == (0.0, 135.6)


class TestContainment:
    def test_vertices_and_centroid_inside(self):
        for verts in ALL_SHAPES:
            poly = ForPolygon(verts)
            for v in verts:
                assert _contains(poly, v)
            centroid = np.mean(np.asarray(verts, float), axis=0)
            assert _contains(poly, centroid)

    def test_outside_points(self):
        poly = ForPolygon(PENTA)
        for q in [(0.0, 0.0), (126.5, 10.0), (80.0, 140.0), (39.0, 74.0)]:
            assert not _contains(poly, q)

    def test_matches_crossing_oracle(self):
        rng = np.random.default_rng(42)
        for verts in ALL_SHAPES:
            poly = ForPolygon(verts)
            v = np.asarray(verts, float)
            lo = v.min(axis=0) - 20
            hi = v.max(axis=0) + 20
            pts = rng.random((500, 2)) * (hi - lo) + lo
            got = poly.contains_many(pts)
            want = np.array(
                [polygon_contains_crossing(verts, q) for q in pts]
            )
            assert np.array_equal(got, want)


class TestLineBounds:
    def test_power_bounds_known_value(self):
        # at 75 MWth the pentagon is cut between its two upper edges
        lo, hi = _chords(PENTA, [75.0], axis=1)
        assert lo[0] <= hi[0]
        assert lo[0] == pytest.approx(40.0, abs=1e-12)
        assert hi[0] == pytest.approx(119.36046511627907, abs=1e-9)

    def test_heat_bounds_at_extreme_power(self):
        lo, hi = _chords(PENTA, [125.8], axis=0)
        assert lo[0] <= hi[0]
        assert lo[0] == pytest.approx(0.0, abs=1e-9)
        assert hi[0] == pytest.approx(32.4, abs=1e-9)

    def test_out_of_range_is_none(self):
        for value, axis in ((140.0, 1), (30.0, 0)):
            lo, hi = _chords(PENTA, [value], axis)
            assert not lo[0] <= hi[0]
            assert (lo[0], hi[0]) == (np.inf, -np.inf)

    def test_bounds_bracket_membership(self):
        # sweep heat levels: every bound pair must itself lie in the region
        rng = np.random.default_rng(3)
        for verts in ALL_SHAPES:
            poly = ForPolygon(verts)
            h_lo, h_hi = poly.heat_range
            h = rng.uniform(h_lo, h_hi, size=40)
            lo, hi = _chords(verts, h, axis=1)
            assert np.all(lo <= hi)
            for p in (lo, hi, 0.5 * (lo + hi)):
                assert poly.contains_many(np.column_stack([p, h]),
                                          tol=1e-7).all()


class TestProjection:
    def test_interior_identity(self):
        poly = ForPolygon(QUAD)
        q = (150.0, 60.0)
        assert _contains(poly, q)
        assert _project(poly, q) == q

    def test_projection_matches_sampling_oracle(self):
        # acceptance tolerance 1e-6 against dense boundary sampling
        rng = np.random.default_rng(11)
        for verts in ALL_SHAPES:
            poly = ForPolygon(verts)
            v = np.asarray(verts, float)
            lo = v.min(axis=0) - 30
            hi = v.max(axis=0) + 30
            pts = rng.random((25, 2)) * (hi - lo) + lo
            for q in pts:
                got = np.asarray(_project(poly, q))
                want = polygon_project_sampled(verts, q)
                assert np.allclose(got, want, atol=1e-6), (verts, q)

    def test_projected_points_are_members(self):
        rng = np.random.default_rng(5)
        poly = ForPolygon(SMALL)
        pts = rng.random((200, 2)) * 120 - 30
        proj, dist = poly.project_many(pts)
        assert np.all(poly.contains_many(proj, tol=1e-7))
        assert np.all(dist >= 0)

    def test_distance_consistency(self):
        rng = np.random.default_rng(9)
        poly = ForPolygon(NARROW)
        pts = rng.random((200, 2)) * 60 + 50
        proj, dist = poly.project_many(pts)
        direct = np.hypot(*(pts - proj).T)
        assert np.allclose(dist, direct, atol=1e-12)

    def test_distance_outside_zero_inside(self):
        poly = ForPolygon(QUAD)
        inside = np.array([[150.0, 60.0], [100.0, 10.0], [200.0, 100.0]])
        assert np.all(poly.project_many(inside)[1] == 0.0)


@st.composite
def _chord_queries(draw):
    """A region, an axis, values across that axis's range of the region
    (the first n_inside of them) and values 1e-6 to 100 beyond it."""
    verts = draw(st.sampled_from(REGIONS))
    axis = draw(st.sampled_from((0, 1)))
    lo, hi = verts[:, axis].min(), verts[:, axis].max()
    inside = [min(hi, lo + f * (hi - lo)) for f in
              draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))]
    beyond = draw(st.lists(st.floats(1e-6, 100.0), max_size=5))
    values = inside + [hi + d for d in beyond] + [lo - d for d in beyond]
    return verts, axis, values, len(inside)


class TestChordOracle:
    @PROPERTY
    @given(_chord_queries())
    def test_chord_bounds_match_halfplane_oracle(self, query):
        verts, axis, values, n_inside = query
        lo, hi = _chords(verts, values, axis)
        for k, value in enumerate(values):
            want = polygon_chord_halfplanes(verts, value, axis)
            if k < n_inside:
                assert lo[k] <= hi[k] and want is not None
                assert abs(lo[k] - want[0]) < 1e-9
                assert abs(hi[k] - want[1]) < 1e-9
            else:
                assert not lo[k] <= hi[k] and want is None


@st.composite
def _points_around(draw):
    """A region and points in its bounding box widened by half its size
    on each side."""
    verts = draw(st.sampled_from(REGIONS))
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    frac = draw(st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
                         min_size=1, max_size=30))
    return verts, lo + np.array(frac) * (hi - lo)


class TestProjectionProperties:
    @PROPERTY
    @given(_points_around())
    def test_projection_is_idempotent(self, case):
        verts, pts = case
        poly = ForPolygon(verts)
        once, _ = poly.project_many(pts)
        again, dist = poly.project_many(once)
        assert np.array_equal(again, once)
        assert np.all(dist == 0.0)

    @PROPERTY
    @given(_points_around())
    def test_interior_points_stay_put(self, case):
        verts, pts = case
        poly = ForPolygon(verts)
        inside = poly.contains_many(pts)
        proj, dist = poly.project_many(pts)
        assert np.array_equal(proj[inside], pts[inside])
        assert np.all(dist[inside] == 0.0)


@st.composite
def _table_queries(draw):
    """1 to 4 regions (so shorter ones are padded), an axis, and an (R, U)
    block of values: each column drawn from its region's vertex coordinates
    along the axis, those +- BOUNDARY_TOL and +- twice it, points across
    the range, and values 1 beyond it."""
    regions = draw(st.lists(random_region(), min_size=1, max_size=4))
    axis = draw(st.sampled_from((0, 1)))
    rows = draw(st.integers(1, 12))
    columns = []
    for v in regions:
        c = v[:, axis]
        lo, hi = c.min(), c.max()
        pool = np.concatenate([
            c, c - BOUNDARY_TOL, c + BOUNDARY_TOL, c - 2 * BOUNDARY_TOL,
            c + 2 * BOUNDARY_TOL, lo + np.linspace(0.0, 1.0, 7) * (hi - lo),
            [lo - 1.0, hi + 1.0]])
        pick = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows,
                             max_size=rows))
        columns.append(pool[pick])
    return regions, axis, np.column_stack(columns)


class TestRegionTable:
    @PROPERTY
    @given(_table_queries())
    def test_table_equals_each_region_alone(self, query):
        # bit for bit, against each region's own one-column table and
        # against the edge-by-edge chords of a single polygon, whose hit
        # is where lo <= hi
        regions, axis, values = query
        got = RegionTable(regions).chord_bounds(values, axis)
        assert len(got) == 2
        for u, v in enumerate(regions):
            alone = _chords(v, values[:, u], axis)
            *edges, hit = polygon_chord_edges(v, values[:, u], axis)
            for column, want, old in zip(got, alone, edges):
                assert np.array_equal(column[:, u], want)
                assert np.array_equal(column[:, u], old)
            assert np.array_equal(got[0][:, u] <= got[1][:, u], hit)

    @pytest.mark.parametrize("name", ["system1", "system2", "system3"])
    def test_system_table_column_is_each_unit(self, name):
        system = load_system(name)
        table = system.region_table
        assert system.region_table is table
        for axis in (0, 1):
            values = np.vstack([np.resize(u.region.vertices[:, axis], 6)
                                for u in system.cogen_units]).T
            got = table.chord_bounds(values, axis)
            for j, u in enumerate(system.cogen_units):
                want = _chords(u.region.vertices, values[:, j], axis)
                for column, w in zip(got, want):
                    assert np.array_equal(column[:, j], w)


@st.composite
def _mixed_points(draw):
    """A region and points around it, with its centroid (inside) and a
    point beyond its bounding box (outside) among them."""
    verts = draw(st.one_of(st.sampled_from(REGIONS), random_region()))
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    frac = draw(st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
                         max_size=30))
    pts = lo + np.array(frac + [(1.5, -0.5)]).reshape(-1, 2) * (hi - lo)
    return verts, np.vstack([pts, verts.mean(axis=0)])


class TestProjectionOfTheRowsOutside:
    @PROPERTY
    @given(_mixed_points())
    def test_batch_equals_each_point_alone(self, case):
        verts, pts = case
        poly = ForPolygon(verts)
        proj, dist = poly.project_many(pts)
        alone = [poly.project_many(q[None, :]) for q in pts]
        assert np.array_equal(proj, np.vstack([a[0] for a in alone]))
        assert np.array_equal(dist, np.concatenate([a[1] for a in alone]))
        # and each row equals the projection of every row at once
        old_proj, old_dist = polygon_project_every_row(
            verts, pts, poly.contains_many(pts))
        assert np.array_equal(proj, old_proj)
        assert np.array_equal(dist, old_dist)

    def test_input_is_not_aliased(self):
        pts = np.array([[150.0, 60.0], [0.0, 0.0]])
        proj, _ = ForPolygon(QUAD).project_many(pts)
        proj[0] = -1.0
        assert pts[0, 0] == 150.0
