import numpy as np
import pytest

from chpdispatch import (
    FrontArchive,
    NormalizationBounds,
    eaf_surfaces,
    hv_metric,
    spread_delta,
    wilcoxon_signed_rank,
)

import oracles


def _archive(points):
    pts = np.atleast_2d(np.asarray(points, float))
    return FrontArchive(
        genes=np.zeros((pts.shape[0], 1)),
        objectives=pts,
        violations=np.zeros(pts.shape[0]),
    )


def _attained_by_all(fronts, gx, gy, need):
    return oracles.eaf_grid_counts(fronts, gx, gy) >= need


class TestNormalizationBounds:
    def test_min_must_be_below_max(self):
        with pytest.raises(ValueError, match="min < max per objective"):
            NormalizationBounds(lower=[0.0, 5.0], upper=[1.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            NormalizationBounds(lower=[0.0], upper=[1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            NormalizationBounds(lower=[0.0, np.nan], upper=[1.0, 2.0])

    def test_from_fronts_takes_union_extent(self):
        nb = NormalizationBounds.from_fronts([
            _archive([(5.0, 9.0), (7.0, 3.0)]),
            [(6.0, 2.0), (9.5, 8.0)],
        ])
        assert np.array_equal(nb.lower, [5.0, 2.0])
        assert np.array_equal(nb.upper, [9.5, 9.0])

    def test_from_fronts_needs_points(self):
        with pytest.raises(ValueError, match="empty fronts"):
            NormalizationBounds.from_fronts([[], []])

    def test_normalize_maps_bounds_to_unit_box(self):
        nb = NormalizationBounds(lower=[10.0, 1.0], upper=[20.0, 3.0])
        norm = nb.normalize([(10.0, 1.0), (20.0, 3.0), (15.0, 2.0)])
        assert np.allclose(norm, [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5)])

    def test_normalize_refuses_points_of_another_width(self):
        # one lower/upper pair must not broadcast over both objectives
        nb = NormalizationBounds(lower=[13000.0], upper=[20000.0])
        with pytest.raises(ValueError, match=r"points have 2 objective\(s\) "
                                             r"but the bounds have 1"):
            nb.normalize([(15000.0, 2.0)])


class TestHvMetric:
    def test_utopian_point_fills_reference_box(self):
        nb = NormalizationBounds(lower=[5.0, 2.0], upper=[9.0, 10.0])
        assert hv_metric([(5.0, 2.0)], nb) == pytest.approx(1.21, rel=1e-12)

    def test_empty_front_is_zero(self):
        nb = NormalizationBounds(lower=[0.0, 0.0], upper=[1.0, 1.0])
        assert hv_metric([], nb) == 0.0

    def test_points_outside_bounds_are_discarded(self):
        nb = NormalizationBounds(lower=[0.0, 0.0], upper=[1.0, 1.0])
        base = hv_metric([(0.5, 0.5)], nb)
        with_stray = hv_metric([(0.5, 0.5), (1.5, 0.2)], nb)
        assert with_stray == base
        assert hv_metric([(2.0, 2.0)], nb) == 0.0

    def test_accepts_archives_and_raw_points(self):
        nb = NormalizationBounds(lower=[0.0, 0.0], upper=[1.0, 1.0])
        pts = [(0.2, 0.8), (0.8, 0.2)]
        assert hv_metric(_archive(pts), nb) == hv_metric(pts, nb)

    def test_monotone_under_added_nondominated_point(self):
        nb = NormalizationBounds(lower=[0.0, 0.0], upper=[1.0, 1.0])
        rng = np.random.default_rng(13)
        for _ in range(30):
            pts = rng.random((6, 2))
            extra = rng.random(2)
            assert (hv_metric(np.vstack([pts, extra]), nb)
                    >= hv_metric(pts, nb) - 1e-12)

    def test_invariant_under_shared_affine_rescaling(self):
        rng = np.random.default_rng(17)
        pts = rng.random((8, 2))
        nb = NormalizationBounds(lower=[0.0, 0.0], upper=[1.0, 1.0])
        scale = np.array([3000.0, 0.004])
        shift = np.array([12000.0, 1.2])
        nb2 = NormalizationBounds(lower=shift, upper=scale + shift)
        assert hv_metric(pts * scale + shift, nb2) == pytest.approx(
            hv_metric(pts, nb), rel=1e-12)


class TestSpreadDelta:
    def setup_method(self):
        self.nb = NormalizationBounds(lower=[0.0, 0.0], upper=[1.0, 1.0])

    def test_single_point_is_undefined(self):
        assert spread_delta([(0.4, 0.6)], self.nb) is None
        assert spread_delta([], self.nb) is None

    def test_uniform_front_touching_corners_is_zero(self):
        pts = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        assert spread_delta(pts, self.nb) == 0.0

    def test_two_point_front_hand_formula(self):
        pts = [(0.2, 0.9), (0.7, 0.1)]
        d_f = np.hypot(0.2 - 0.0, 0.9 - 1.0)
        d_l = np.hypot(0.7 - 1.0, 0.1 - 0.0)
        gap = np.hypot(0.5, 0.8)
        want = (d_f + d_l) / (d_f + d_l + gap)
        assert spread_delta(pts, self.nb) == pytest.approx(want, rel=1e-12)

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(3)
        pts = np.column_stack([np.sort(rng.random(7)),
                               -np.sort(-rng.random(7))])
        base = spread_delta(pts, self.nb)
        assert spread_delta(pts[::-1], self.nb) == pytest.approx(base,
                                                                 rel=1e-12)

    def test_clustered_front_scores_worse_than_uniform(self):
        uniform = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25),
                   (1.0, 0.0)]
        clustered = [(0.0, 1.0), (0.04, 0.96), (0.08, 0.92), (1.0, 0.0)]
        assert (spread_delta(clustered, self.nb)
                > spread_delta(uniform, self.nb))


class TestEafSurfaces:
    def test_needs_two_runs(self):
        with pytest.raises(ValueError, match="at least 2 runs"):
            eaf_surfaces([_archive([(0.5, 0.5)])], [50.0])

    def test_level_must_be_percentage(self):
        runs = [_archive([(0.5, 0.5)]), _archive([(0.4, 0.6)])]
        with pytest.raises(ValueError, match=r"outside \(0, 100\]"):
            eaf_surfaces(runs, [0.0])
        with pytest.raises(ValueError, match=r"outside \(0, 100\]"):
            eaf_surfaces(runs, [101.0])

    def test_identical_runs_share_every_surface(self):
        pts = [(0.1, 0.9), (0.4, 0.5), (0.8, 0.2)]
        runs = [_archive(pts) for _ in range(4)]
        out = eaf_surfaces(runs, [25.0, 50.0, 75.0, 100.0])
        base = out[25.0]
        for level in (50.0, 75.0, 100.0):
            assert np.array_equal(out[level], base)

    def test_full_attainment_matches_grid_bruteforce(self):
        # the 100% surface must attain exactly the cells attained by both
        # runs, checked on a dense grid
        rng = np.random.default_rng(7)
        fronts = [rng.random((5, 2)), rng.random((7, 2))]
        surface = eaf_surfaces(fronts, [100.0])[100.0]
        gx = np.linspace(-0.1, 1.2, 200)
        gy = np.linspace(-0.1, 1.2, 200)
        want = _attained_by_all(fronts, gx, gy, need=2)
        got = _attained_by_all([surface], gx, gy, need=1)
        assert np.array_equal(got, want)

    def test_every_level_matches_grid_bruteforce(self):
        rng = np.random.default_rng(11)
        fronts = [rng.random((rng.integers(3, 9), 2)) for _ in range(4)]
        out = eaf_surfaces(fronts, [25.0, 50.0, 75.0, 100.0])
        gx = np.linspace(-0.1, 1.2, 150)
        gy = np.linspace(-0.1, 1.2, 150)
        for level, need in ((25.0, 1), (50.0, 2), (75.0, 3), (100.0, 4)):
            want = _attained_by_all(fronts, gx, gy, need)
            got = _attained_by_all([out[level]], gx, gy, need=1)
            assert np.array_equal(got, want), f"level {level}"

    def test_levels_nest(self):
        # a region attained by 75% of runs is attained by 50% and 25%
        rng = np.random.default_rng(23)
        fronts = [rng.random((6, 2)) for _ in range(4)]
        out = eaf_surfaces(fronts, [25.0, 50.0, 75.0])
        gx = np.linspace(-0.1, 1.2, 120)
        gy = np.linspace(-0.1, 1.2, 120)
        low = _attained_by_all([out[25.0]], gx, gy, 1)
        mid = _attained_by_all([out[50.0]], gx, gy, 1)
        high = _attained_by_all([out[75.0]], gx, gy, 1)
        assert (high <= mid).all()
        assert (mid <= low).all()


class TestWilcoxon:
    def test_input_validation(self):
        with pytest.raises(ValueError, match="pairs"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0])

    def test_all_equal_pairs(self):
        p, reject = wilcoxon_signed_rank([(2.0, 2.0)] * 8)
        assert p == 1.0
        assert reject is False

    def test_six_uniformly_positive_differences(self):
        pairs = [(k + 1.0, 0.0) for k in range(6)]
        p, reject = wilcoxon_signed_rank(pairs)
        assert p == pytest.approx(2.0 / 64.0, abs=1e-12)
        assert reject is True

    def test_balanced_symmetric_differences(self):
        pairs = [(d, 0.0) for d in (1.0, -1.0, 2.0, -2.0, 3.0, -3.0)]
        p, reject = wilcoxon_signed_rank(pairs)
        assert p == 1.0
        assert reject is False

    def test_zero_differences_are_dropped(self):
        pairs = [(k + 1.0, 0.0) for k in range(6)]
        p_clean, _ = wilcoxon_signed_rank(pairs)
        p_padded, _ = wilcoxon_signed_rank(pairs + [(5.0, 5.0)] * 3)
        assert p_padded == p_clean

    def test_exact_path_matches_enumeration(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 60:
            n = int(rng.integers(1, 11))
            diffs = rng.integers(-6, 7, size=n).astype(float)
            if not np.any(diffs):
                continue
            pairs = [(d, 0.0) for d in diffs]
            p, _ = wilcoxon_signed_rank(pairs)
            want = oracles.wilcoxon_enumeration(diffs)
            assert p == pytest.approx(want, abs=1e-12), diffs
            checked += 1

    def test_tied_magnitudes_match_enumeration(self):
        diffs = [1.0, -1.0, 1.0, 2.0, 2.0, -3.0, 3.0, 3.0]
        p, _ = wilcoxon_signed_rank([(d, 0.0) for d in diffs])
        assert p == pytest.approx(oracles.wilcoxon_enumeration(diffs),
                                  abs=1e-12)

    def test_large_sample_normal_path(self):
        one_sided = [(1.0 + 0.1 * k, 0.0) for k in range(25)]
        p_low, reject = wilcoxon_signed_rank(one_sided)
        assert p_low < 0.01
        assert reject is True

        balanced = [(0.5 * (-1) ** k * (1 + k // 2), 0.0) for k in range(24)]
        p_high, reject = wilcoxon_signed_rank(balanced)
        assert p_high > 0.5
        assert reject is False

    def test_large_sample_with_full_ties(self):
        pairs = [(1.0, 0.0)] * 25
        p, reject = wilcoxon_signed_rank(pairs)
        assert 0.0 <= p < 1e-4
        assert reject is True
