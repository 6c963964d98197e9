import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chpdispatch import (
    EngineConfig,
    FrontArchive,
    hypervolume_2d,
    load_system,
    run,
)
from chpdispatch import engine
from chpdispatch.constraints import evaluate_batch
from chpdispatch.engine import (
    CROSSOVER_PROB,
    FEASIBILITY_TOL,
    PM_ETA,
    SBX_ETA,
    _crowding,
    _crowding_truncate,
    _effective_violation,
    _env_select,
    _fast_nds,
    _indicator_fitness,
    _indicator_select,
    _make_front,
    _nsga2_select,
    _spawn_children,
    _tournament,
    _workspace,
)

import oracles
from oracles import dominates

_DYADIC = st.integers(0, 336).map(lambda k: k / 256)


@st.composite
def _pools(draw, n_objs=(1, 2)):
    """(objectives, violations, n_keep): 1 to 60 rows drawn from a few
    distinct points, on a 1-decimal grid or in [0, 1], some rows
    infeasible with tied violations (1e-10 counts as feasible)."""
    n = draw(st.integers(1, 60))
    m = draw(st.sampled_from(n_objs))
    if draw(st.booleans()):
        value = st.integers(0, 10).map(lambda k: k / 10)
    else:
        value = st.floats(0.0, 1.0)
    points = draw(st.lists(st.tuples(*[value] * m), min_size=1, max_size=n))
    rows = draw(st.lists(st.integers(0, len(points) - 1), min_size=n,
                         max_size=n))
    viol = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 1e-10, 0.5, 2.0]),
                         min_size=n, max_size=n))
    return (np.array([points[r] for r in rows], float), np.array(viol),
            draw(st.integers(1, n)))


_GRID_VIOLATIONS = st.sampled_from(
    [0.0, 0.0, 1e-12, FEASIBILITY_TOL, 0.25, 0.25, 3.0])


@st.composite
def _grid_pools(draw):
    """(objectives, violations): 1 to 60 rows with 1 or 2 objectives on a
    small integer grid, so equal costs and exact duplicates are dense;
    violations mix 0, values at most FEASIBILITY_TOL and repeated positive
    values."""
    n = draw(st.integers(1, 60))
    m = draw(st.sampled_from([1, 2]))
    value = st.integers(0, draw(st.integers(0, 6))).map(float)
    objs = draw(st.lists(st.tuples(*[value] * m), min_size=n, max_size=n))
    viol = draw(st.lists(_GRID_VIOLATIONS, min_size=n, max_size=n))
    return np.array(objs, float).reshape(n, m), np.array(viol)


@st.composite
def _cost_pools(draw):
    """(costs as one column, violations, n_keep): 4 to 60 rows on an
    integer grid of up to 41 values, full of exact duplicates, violations
    as in _grid_pools, and an even n_keep of at least 4."""
    n = draw(st.integers(4, 60))
    value = st.integers(0, draw(st.integers(0, 40))).map(float)
    costs = draw(st.lists(value, min_size=n, max_size=n))
    viol = draw(st.lists(_GRID_VIOLATIONS, min_size=n, max_size=n))
    return (np.array(costs)[:, None], np.array(viol),
            2 * draw(st.integers(2, n // 2)))


@st.composite
def _normalized_pools(draw):
    """Normalized (n, m) objectives, n 2 to 64 and m 2 or 3, drawn from a
    few distinct points on a 1-decimal grid or in [0, 1], so ties and
    exact duplicates are common; sometimes one objective column holds a
    single value."""
    n = draw(st.integers(2, 64))
    m = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        value = st.integers(0, 10).map(lambda k: k / 10)
    else:
        value = st.floats(0.0, 1.0)
    points = draw(st.lists(st.tuples(*[value] * m), min_size=1, max_size=n))
    rows = draw(st.lists(st.integers(0, len(points) - 1), min_size=n,
                         max_size=n))
    objs = np.array([points[r] for r in rows], float)
    if draw(st.booleans()):
        objs[:, draw(st.integers(0, m - 1))] = draw(value)
    return engine._normalize_objs(objs)


def _fronts(rank):
    """The fronts of a rank vector as ascending index arrays, best first."""
    return [np.flatnonzero(rank == r) for r in range(rank.max() + 1)]


@st.composite
def _nsga2_pools(draw):
    """(objectives, violations, N): a _grid_pools pool cut to an even
    number of at least 4 rows, and an even N of at least 4 that it holds:
    the pool's own size (the first generation's pool), the size of its
    first k fronts (so front k fills the room exactly), or any."""
    objs, viol = draw(_grid_pools().filter(lambda p: p[0].shape[0] >= 4))
    n = objs.shape[0] - objs.shape[0] % 2
    objs, viol = objs[:n], viol[:n]
    sizes = np.cumsum([f.shape[0] for f in oracles.fronts_domination_matrix(
        objs, viol, FEASIBILITY_TOL)])
    fits = [int(k) for k in sizes if k >= 4 and k % 2 == 0]
    kind = draw(st.sampled_from(["exact", "fits", "any"]))
    if kind == "exact":
        return objs, viol, n
    if kind == "fits" and fits:
        return objs, viol, draw(st.sampled_from(fits))
    return objs, viol, 2 * draw(st.integers(2, n // 2))


def _system3_pool():
    """The 400-row objective pool of the one environmental selection with
    removals in a seeded system3 IDBEA run of N=200 and 400 evaluations
    (the first, 200-row pool goes through it with none)."""
    pools = []
    select = engine._env_select

    def spy(objs, *args):
        pools.append(objs)
        return select(objs, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_env_select", spy)
        run(load_system("system3"), EngineConfig(max_evaluations=400,
                                                 rng_seed=1))
    (objs,) = [p for p in pools if p.shape[0] == 400]
    return objs


def _cfg(**kw):
    kw.setdefault("population_size", 4)
    kw.setdefault("max_evaluations", kw["population_size"])
    return EngineConfig(**kw)


class _ScriptedRng:
    """Stands in for a Generator: hands out preset draws in order, each
    of the shape the caller asks for."""

    def __init__(self, draws):
        self._draws = [np.asarray(d) for d in draws]

    def _next(self, size):
        draw = self._draws.pop(0)
        assert draw.shape == np.empty(size).shape
        return draw

    def integers(self, low, high, size):
        return self._next(size)

    def random(self, size):
        return self._next(size)


def _variation_draws(rng, k, n, m, cross=None, mutate=None):
    """The draws _spawn_children takes for n children of m genes bred
    from k parents, taken from rng in that order; cross and mutate, when
    given, replace every crossover flag or every mutation flag."""
    draws = [rng.integers(0, k, size=(2, n)), rng.random(n // 2),
             rng.random((n // 2, m)), rng.random((n // 2, m)),
             rng.random((n, m)), rng.random((n, m))]
    if cross is not None:
        draws[1] = np.full(n // 2, float(cross))
    if mutate is not None:
        draws[4] = np.full((n, m), float(mutate))
    return draws


def _pairs(*pairs):
    """Tournament draws (i, j) as the (2, k) index array one call takes."""
    return np.array(pairs).T


class TestConfig:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError, match="even and at least 4"):
            EngineConfig(population_size=5, max_evaluations=100)

    def test_tiny_population_rejected(self):
        with pytest.raises(ValueError, match="even and at least 4"):
            EngineConfig(population_size=2, max_evaluations=100)

    def test_budget_below_one_population(self):
        with pytest.raises(ValueError, match="at least one population"):
            EngineConfig(population_size=10, max_evaluations=9)

    def test_bad_algorithm(self):
        with pytest.raises(ValueError, match="algorithm must be one of"):
            _cfg(algorithm="SPEA2")

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "population_size", "max_evaluations", "rng_seed", "algorithm"]


class TestDominates:
    def test_strictly_better_dominates(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 1.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_incomparable(self):
        assert not dominates((1.0, 3.0), (3.0, 1.0))
        assert not dominates((3.0, 1.0), (1.0, 3.0))

    def test_weak_dominance_needs_one_strict(self):
        assert dominates((1.0, 2.0), (1.0, 3.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="objective dimensions differ"):
            dominates((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_lower_violation_wins_regardless_of_objectives(self):
        assert dominates((9.0, 9.0), (1.0, 1.0), 0.0, 0.5)
        assert not dominates((1.0, 1.0), (9.0, 9.0), 0.5, 0.0)

    def test_violations_below_tolerance_are_zero(self):
        # 1e-12 on both sides is treated as feasible, so the objective
        # comparison decides.
        assert dominates((1.0, 1.0), (2.0, 2.0), 1e-12, 0.0)
        assert not dominates((2.0, 2.0), (1.0, 1.0), 0.0, 1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = rng.integers(2, 4)
            a = rng.random(m).round(1)
            b = rng.random(m).round(1)
            assert dominates(a, b) == oracles.dominates_bruteforce(a, b)


@st.composite
def _hv_points(draw):
    """2-D point sets: scattered points, or a staircase of up to 40 mutually
    non-dominated points (many strips) with scattered points mixed in."""
    coord = st.floats(-0.5, 1.5) | _DYADIC
    pts = draw(st.lists(st.tuples(coord, coord), max_size=25))
    if draw(st.booleans()):
        xs = draw(st.lists(coord, min_size=1, max_size=40))
        ys = draw(st.lists(coord, min_size=len(xs), max_size=len(xs)))
        pts += list(zip(sorted(xs), sorted(ys, reverse=True)))
    return pts


class TestHypervolume:
    def test_single_point_at_origin(self):
        assert hypervolume_2d([(0.0, 0.0)]) == pytest.approx(1.21, rel=1e-12)

    def test_symmetric_pair(self):
        hv = hypervolume_2d([(0.2, 0.8), (0.8, 0.2)])
        assert hv == pytest.approx(0.45, rel=1e-12)

    def test_duplicates_change_nothing(self):
        pts = [(0.2, 0.8), (0.8, 0.2)]
        assert hypervolume_2d(pts * 3) == hypervolume_2d(pts)

    def test_dominated_point_changes_nothing(self):
        pts = [(0.2, 0.8), (0.8, 0.2)]
        assert hypervolume_2d(pts + [(0.9, 0.9)]) == hypervolume_2d(pts)

    def test_empty_and_outside_reference(self):
        assert hypervolume_2d([]) == 0.0
        assert hypervolume_2d([(1.2, 0.5), (0.5, 1.3)]) == 0.0

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="2 objectives"):
            hypervolume_2d([(0.1, 0.2, 0.3)])

    def test_adding_a_point_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = rng.random((rng.integers(1, 12), 2))
            extra = rng.random(2)
            base = hypervolume_2d(pts)
            grown = hypervolume_2d(np.vstack([pts, extra]))
            assert grown >= base - 1e-12

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=500)
    @given(pts=st.lists(st.tuples(_DYADIC, _DYADIC), max_size=12),
           extra=st.tuples(_DYADIC, _DYADIC))
    def test_adding_a_point_never_decreases_exactly(self, pts, extra):
        # on a 1/256 grid with a dyadic reference every strip area and
        # every partial sum is exact, so any decrease would be a sweep
        # fault, not rounding; points on or past the reference included
        ref = (1.25, 1.25)
        assert hypervolume_2d(pts + [extra], ref) >= hypervolume_2d(pts, ref)

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=500)
    @given(pts=_hv_points(),
           ref=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
    def test_matches_loop_oracle_exactly(self, pts, ref):
        # the accumulate sweep adds the same strips in the same order as
        # the one-point-at-a-time loop, so the sums agree in every bit (a
        # pairwise sum of a long staircase would not); ties, duplicates and
        # points on or past the reference included
        got = hypervolume_2d(pts, ref)
        want = oracles.hypervolume_sweep_loop(pts, ref)
        assert got == want
        assert type(got) is float

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(77)
        for size in (1, 5, 20):
            pts = rng.random((size, 2))
            exact = hypervolume_2d(pts)
            mc = oracles.hypervolume_mc(pts, ref=(1.1, 1.1))
            assert exact == pytest.approx(mc, abs=1e-3)


def _indicator(a, b):
    """I({a}, {b}) as the engine computes it for selection."""
    return engine._pairwise_indicator(np.array([a, b], float))[0, 1]


class TestIndicator:
    def test_dominating_singleton_is_negative(self):
        assert _indicator((0.3, 0.3), (0.6, 0.6)) == \
            pytest.approx(-0.39, abs=1e-12)

    def test_dominated_singleton_is_positive(self):
        assert _indicator((0.6, 0.6), (0.3, 0.3)) == \
            pytest.approx(0.39, abs=1e-12)

    def test_identical_sets_give_zero(self):
        for a in ((0.2, 0.7), (0.5, 0.4)):
            assert _indicator(a, a) == 0.0

    def test_matches_bruteforce_on_singletons(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.random(2), rng.random(2)
            got = _indicator(a, b)
            want = oracles.indicator_pair_bruteforce(a, b)
            assert got == pytest.approx(want, abs=1e-12)

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=300)
    @given(nobjs=_normalized_pools())
    def test_min_overlap_matches_ref_max_bit_for_bit(self, nobjs):
        got = engine._pairwise_indicator(nobjs)
        want = oracles.pairwise_indicator_ref_max(nobjs)
        assert got.tobytes() == want.tobytes()

    def test_min_overlap_matches_ref_max_on_a_system3_pool(self):
        objs = _system3_pool()
        assert objs.shape == (400, 2)
        nobjs = engine._normalize_objs(objs)
        got = engine._pairwise_indicator(nobjs, work=_workspace(400))
        want = oracles.pairwise_indicator_ref_max(nobjs)
        assert got.tobytes() == want.tobytes()


class TestFitness:
    def test_identical_individuals_equal_fitness(self):
        objs = np.array([(0.4, 0.6), (0.4, 0.6), (0.4, 0.6), (0.1, 0.9)])
        fit = _indicator_fitness(objs).sum(axis=0)
        assert fit[0] == pytest.approx(fit[1], rel=1e-12)
        assert fit[1] == pytest.approx(fit[2], rel=1e-12)

    def test_dominated_by_both_has_largest_fitness(self):
        fit = _indicator_fitness(
            np.array([(0.2, 0.3), (0.3, 0.2), (0.8, 0.9)])).sum(axis=0)
        assert np.argmax(fit) == 2

    def test_invariant_under_affine_rescaling(self):
        rng = np.random.default_rng(31)
        objs = rng.random((25, 2))
        base = _indicator_fitness(objs).sum(axis=0)
        scaled = _indicator_fitness(
            objs * np.array([3.5e3, 0.02]) + np.array([100.0, 7.0])
        ).sum(axis=0)
        for a, b in zip(base, scaled):
            assert a == pytest.approx(b, rel=1e-9)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 26))
            objs = rng.random((n, 2))
            got = _indicator_fitness(objs).sum(axis=0)
            want = oracles.fitness_bruteforce(objs)
            # exp terms reach ~1e8, so the comparison has to be relative
            assert np.allclose(got, want, rtol=1e-9)


class TestEnvironmentalSelection:
    def test_pool_matching_slots_is_returned_unchanged(self):
        objs = np.random.default_rng(1).random((6, 2))
        alive, _, removed = _env_select(objs, np.zeros(6), 6)
        assert alive.tolist() == list(range(6))
        assert removed == []

    def test_incremental_update_matches_recomputation(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            n = int(rng.integers(8, 30))
            n_keep = int(rng.integers(2, n))
            objs = rng.random((n, 2))
            viol = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
            alive, fit, removed = _env_select(objs, viol, n_keep)
            want_alive, want_removed = oracles.environmental_selection_bruteforce(
                objs, n_keep, violations=viol)
            assert list(alive) == want_alive
            assert removed == want_removed
            ind = oracles._normalized_indicator_matrix(objs)
            c = oracles._receiver_scales(ind)
            for i in alive:
                want_fit = sum(
                    np.exp(-ind[j, i] / (c[i] * 0.05))
                    for j in alive if j != i
                )
                assert fit[i] == pytest.approx(want_fit, rel=1e-9, abs=1e-12)

    def test_fitness_stays_accurate_after_every_removal(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(10, 24))
            objs = rng.random((n, 2))
            viol = np.zeros(n)
            ind = oracles._normalized_indicator_matrix(objs)
            c = oracles._receiver_scales(ind)
            for n_keep in range(n - 1, 1, -1):
                alive, fit, _ = _env_select(objs, viol, n_keep)
                for i in alive:
                    want = sum(
                        np.exp(-ind[j, i] / (c[i] * 0.05))
                        for j in alive if j != i
                    )
                    assert fit[i] == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_infeasible_evicted_by_violation_first(self):
        objs = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1),
                (0.2, 0.2), (0.3, 0.3), (0.4, 0.4)]
        viol = [0.0, 0.0, 0.0, 5.0, 2.0, 9.0]
        _, _, removed = _env_select(np.array(objs), np.array(viol), 3)
        assert removed == [5, 3, 4]

    def test_violation_tie_broken_by_fitness(self):
        # individuals 2 and 3 share the largest violation; 3 is dominated,
        # so it carries the larger fitness and goes first
        objs = np.array([(0.1, 0.9), (0.9, 0.1), (0.3, 0.3), (0.6, 0.6)])
        viol = np.array([0.0, 0.0, 4.0, 4.0])
        _, _, removed = _env_select(objs, viol, 2)
        assert removed == [3, 2]

    def test_duplicate_heavy_pool_keeps_distinct_nondominated(self):
        nd = [(0.05, 0.9), (0.5, 0.5), (0.9, 0.05)]
        for pool in (nd + [(0.8, 0.8)] * 3,
                     nd + [(0.95, 0.95)] * 2 + [(0.7, 0.7)]):
            objs = np.array(pool)
            kept, _, _ = _env_select(objs, np.zeros(6), 4)
            kept_objs = {tuple(objs[i]) for i in kept}
            assert set(nd) <= kept_objs

    def test_never_drops_nondominated_while_dominated_remains(self):
        # every 4-point multiset on a 5x5 objective grid, pruned to one
        # survivor step by step
        grid = [(x, y) for x in np.linspace(0, 1, 5)
                for y in np.linspace(0, 1, 5)]
        zeros = np.zeros(4)
        for combo in itertools.combinations_with_replacement(grid, 4):
            objs = np.array(combo)
            _, _, removed = _env_select(objs, zeros, 1)
            alive = set(range(4))
            for worst in removed:
                dominated = {
                    i for i in alive
                    if any(oracles.dominates_bruteforce(objs[j], objs[i])
                           for j in alive if j != i)
                }
                if dominated:
                    assert worst in dominated, f"{combo} evicted {worst}"
                alive.discard(worst)


    @settings(derandomize=True, deadline=None, database=None,
              max_examples=400)
    @given(pool=_pools())
    def test_matches_sequential_neumaier_bit_for_bit(self, pool):
        # the reference adds the rows of E one at a time with a Neumaier
        # step and searches the alive rows with flatnonzero every removal
        objs, viol, n_keep = pool
        alive, fit, removed = _env_select(objs, viol, n_keep)
        e = _indicator_fitness(objs)
        want_alive, want_fit, want_removed = oracles.env_select_neumaier(
            e, _effective_violation(viol), n_keep)
        assert alive.tolist() == want_alive.tolist()
        assert removed == want_removed
        assert fit[alive].tobytes() == want_fit[alive].tobytes()

    def test_reused_workspace_matches_fresh_arrays(self):
        # one workspace over pools of different content and size; stale
        # entries of a larger pool must not leak into a smaller one
        rng = np.random.default_rng(83)
        work = _workspace(400)
        for n in (400, 12, 400):
            points = rng.random((n // 2, 2))
            objs = points[rng.integers(0, n // 2, n)]
            viol = np.where(rng.random(n) < 0.2, rng.random(n), 0.0)
            n_keep = n * 5 // 8
            alive, fit, removed = _env_select(objs, viol, n_keep, work)
            want_alive, want_fit, want_removed = _env_select(objs, viol,
                                                             n_keep)
            assert alive.tolist() == want_alive.tolist()
            assert removed == want_removed
            assert fit[alive].tobytes() == want_fit[alive].tobytes()
            assert _indicator_fitness(objs, work).tobytes() == \
                _indicator_fitness(objs).tobytes()

    def test_warm_call_with_workspace_allocates_no_square_matrix(self):
        rng = np.random.default_rng(89)
        objs = rng.random((400, 2))
        viol = np.where(rng.random(400) < 0.2, rng.random(400), 0.0)
        work = _workspace(400)
        _env_select(objs, viol, 250, work)
        tracemalloc.start()
        try:
            _env_select(objs, viol, 250, work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400 * 400 * 8


class TestCrowding:
    def test_tiny_fronts_are_infinite(self):
        assert np.isinf(_crowding(np.array([[0.3, 0.4]]))).all()
        assert np.isinf(_crowding(np.array([[0.3, 0.4], [0.1, 0.9]]))).all()

    def test_three_point_example(self):
        dist = _crowding(np.array([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]))
        assert np.isinf(dist[0])
        assert dist[1] == pytest.approx(2.0, rel=1e-12)
        assert np.isinf(dist[2])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(301)
        objs = rng.random((9, 2))
        base = _crowding(objs)
        perm = rng.permutation(9)
        shuffled = _crowding(objs[perm])
        assert np.array_equal(shuffled, base[perm])

    def test_degenerate_objective_adds_no_spread(self):
        # the flat emission axis contributes nothing to the interior point
        dist = _crowding(np.array([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]))
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert dist[1] == pytest.approx(1.0, rel=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(3, 13))
            objs = rng.random((n, 2))
            got = _crowding(objs)
            want = oracles.crowding_bruteforce(objs)
            inf = np.isinf(want)
            assert np.array_equal(np.isinf(got), inf)
            assert np.allclose(got[~inf], want[~inf], atol=1e-12)


class TestNondominatedSort:
    def test_mutually_nondominated_is_one_front(self):
        ranks = _fast_nds(
            np.array([(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]), np.zeros(3))
        fronts = _fronts(ranks)
        assert len(fronts) == 1
        assert ranks.tolist() == [0, 0, 0]

    def test_chain_gives_singleton_fronts(self):
        ranks = _fast_nds(
            np.array([(0.3, 0.3), (0.2, 0.2), (0.1, 0.1)]), np.zeros(3))
        fronts = _fronts(ranks)
        assert [len(f) for f in fronts] == [1, 1, 1]
        assert ranks.tolist() == [2, 1, 0]

    def test_infeasible_ranked_behind_feasible(self):
        ranks = _fast_nds(
            np.array([(0.5, 0.5), (0.6, 0.6), (0.0, 0.0)]),
            np.array([0.0, 0.0, 3.0]))
        assert ranks[2] > ranks[0]
        assert ranks[2] > ranks[1]

    def test_crowding_is_computed_within_each_front(self):
        objs = np.array([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (5.0, 5.0)])
        ranks = _fast_nds(objs, np.zeros(4))
        crowd = _crowding(objs, ranks)
        assert ranks.tolist() == [0, 0, 0, 1]
        assert np.array_equal(crowd[:3], _crowding(objs[:3]))
        assert np.isinf(crowd[3])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            objs = rng.random((n, 2)).round(2)
            got = [sorted(f.tolist())
                   for f in _fronts(_fast_nds(objs, np.zeros(n)))]
            want = [sorted(f)
                    for f in oracles.nondominated_fronts_bruteforce(objs)]
            assert got == want

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=400)
    @given(pool=_grid_pools())
    def test_sorted_ranks_match_domination_matrix(self, pool):
        objs, viol = pool
        ranks = _fast_nds(objs, viol)
        got = _fronts(ranks)
        want = oracles.fronts_domination_matrix(objs, viol, FEASIBILITY_TOL)
        assert [f.tolist() for f in got] == [f.tolist() for f in want]
        crowd = _crowding(objs, ranks)
        per_front = np.empty(objs.shape[0])
        for r, idx in enumerate(want):
            assert (ranks[idx] == r).all()
            per_front[idx] = oracles.crowding_bruteforce(objs[idx])
        assert np.array_equal(crowd, per_front)


class TestNsga2Select:
    """The survivors' order is the tournament's input: each draw picks a
    survivor position, so the order must match the front-filling loop's,
    not just the set of survivors."""

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=400)
    @given(pool=_nsga2_pools())
    def test_matches_front_filling_loop(self, pool):
        objs, viol, n = pool
        pick, ranks, neg_crowd = _nsga2_select(
            objs, viol, _cfg(population_size=n))
        want = oracles.nsga2_select_front_filling(objs, viol, n,
                                                  FEASIBILITY_TOL)
        assert pick.tolist() == want[0].tolist()
        assert ranks.dtype == want[1].dtype
        assert np.array_equal(ranks, want[1])
        assert np.array_equal(neg_crowd, want[2])

    def test_only_the_boundary_front_goes_by_crowding(self):
        # front 0 is rows 1-3 (crowding inf, 2.0, inf) and fits whole, in
        # index order; front 1 lies on cost + emission = 12 (row 0 at 1.0,
        # row 4 at 1.5, its two ends rows 5 and 6) and is cut to three
        # rows by descending crowding
        objs = np.array([(5.0, 7.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0),
                         (6.0, 6.0), (4.0, 8.0), (8.0, 4.0)])
        pick, ranks, neg_crowd = _nsga2_select(objs, np.zeros(7),
                                               _cfg(population_size=6))
        assert pick.tolist() == [1, 2, 3, 5, 6, 4]
        assert ranks.tolist() == [0, 0, 0, 1, 1, 1]
        assert neg_crowd.tolist() == [-np.inf, -2.0, -np.inf, -np.inf,
                                      -np.inf, -1.5]


class TestCostSort:
    """chped indicator selection keeps the best N rows by (effective
    violation, cost). In exact arithmetic the one-objective fitness of a
    row rises strictly with its cost, whichever rows are alive, so the
    removals of _env_select pick the same rows. On a grid the costs lie
    far more apart than the rounding of the fitness sums; costs closer
    than that rounding are the one case where _env_select's float sums
    decide otherwise (test_cost_decides_where_fitness_sums_round_equal).
    """

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=400)
    @given(pool=_cost_pools())
    def test_matches_env_select(self, pool):
        objs, viol, n_keep = pool
        alive, primary, secondary = _indicator_select(
            objs, viol, _cfg(population_size=n_keep))
        # n_keep is at most the pool size; at equal size nothing goes
        want, fit, _ = _env_select(objs, viol, n_keep)
        assert alive.tolist() == want.tolist()
        veff = _effective_violation(viol[alive])
        assert np.array_equal(primary, veff)
        assert np.array_equal(secondary, objs[alive, 0])
        # the tournament key (veff, fitness) orders every pair as
        # (veff, cost) does; rows of equal cost are objective duplicates,
        # whose fitness sums take the same terms in another order
        fit, cost = fit[alive], secondary
        i, j = np.nonzero(veff[:, None] == veff[None, :])
        apart = cost[i] != cost[j]
        assert np.array_equal(fit[i][apart] < fit[j][apart],
                              cost[i][apart] < cost[j][apart])
        assert np.allclose(fit[i][~apart], fit[j][~apart], rtol=1e-12,
                           atol=0.0)

    def test_ties_keep_the_higher_index(self):
        objs = np.array([[3.0], [1.0], [3.0], [2.0], [3.0], [0.5]])
        viol = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        alive, primary, secondary = _indicator_select(
            objs, viol, _cfg(population_size=4))
        assert alive.tolist() == [1, 2, 3, 4]
        assert primary.tolist() == [0.0] * 4
        assert secondary.tolist() == [1.0, 3.0, 2.0, 3.0]

    def test_cost_decides_where_fitness_sums_round_equal(self):
        # rows 0 and 4 are 1e-9 apart at the top of the span; their
        # fitness sums (about 1.46e9) differ in exact arithmetic by less
        # than one unit in the last place, so _env_select sees a tie and
        # removes the first, row 0, where the sort removes the costlier
        objs = np.array([[0.999999999], [-1e-9], [0.0], [-1e-9], [1.0]])
        fit = _indicator_fitness(objs).sum(axis=0)
        assert fit[0] == fit[4]
        assert _env_select(objs, np.zeros(5), 4)[0].tolist() \
            == [1, 2, 3, 4]
        alive, _, _ = _indicator_select(objs, np.zeros(5),
                                        _cfg(population_size=4))
        assert alive.tolist() == [0, 1, 2, 3]


class TestVariation:
    """The operators at their fixed rates. Crossover flags above
    CROSSOVER_PROB and mutation flags at or above 1/m switch an operator
    off; flags of 0.0 switch it on everywhere."""

    def setup_method(self):
        self.lower = np.zeros(6)
        self.upper = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def _spawn(self, genes, rng, n=4, cross=None, mutate=None):
        # flat keys: every tournament keeps its first draw
        keys = np.zeros(genes.shape[0])
        draws = _variation_draws(rng, genes.shape[0], n, genes.shape[1],
                                 cross, mutate)
        return _spawn_children(genes, keys, keys, self.lower, self.upper, n,
                               _ScriptedRng(draws)), draws

    def _in_box(self, n, rng):
        return self.lower + rng.random((n, 6)) * (self.upper - self.lower)

    def test_sbx_without_event_copies_parents(self):
        genes = self._in_box(5, np.random.default_rng(10))
        kids, draws = self._spawn(genes, np.random.default_rng(0), n=8,
                                  cross=0.95, mutate=1.0)
        assert np.array_equal(kids, genes[draws[0][0]])
        assert not np.shares_memory(kids, genes)

    def test_sbx_identical_parents_identical_children(self):
        rng = np.random.default_rng(1)
        a = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        for _ in range(20):
            kids, _ = self._spawn(np.tile(a, (3, 1)), rng, cross=0.0,
                                  mutate=1.0)
            assert np.allclose(kids, a, atol=1e-12)

    def test_sbx_children_stay_in_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            kids, _ = self._spawn(self._in_box(2000, rng), rng, n=2000,
                                  cross=0.0, mutate=1.0)
            assert (kids >= self.lower).all() and (kids <= self.upper).all()

    def test_mutation_probability_zero_is_identity(self):
        # mutation flags exactly at 1/m: no gene mutates
        x = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        genes = np.tile(x, (4, 1))
        kids, _ = self._spawn(genes, np.random.default_rng(4), cross=0.95,
                              mutate=1.0 / 6)
        assert np.array_equal(kids, genes)
        assert not np.shares_memory(kids, genes)

    def test_mutation_at_lower_bound_only_moves_up(self):
        rng = np.random.default_rng(5)
        genes = np.tile(self.lower, (4, 1))
        saw_increase = False
        for _ in range(500):
            kids, _ = self._spawn(genes, rng, mutate=0.0)
            assert (kids >= self.lower).all()
            saw_increase = saw_increase or (kids > self.lower).any()
        assert saw_increase

    def test_mutation_event_rate(self):
        # no crossover: each gene mutates with probability 1/m, here for
        # m = 3 genes
        rng = np.random.default_rng(6)
        lower, upper = self.lower[:3], self.upper[:3]
        x = 0.5 * (lower + upper)
        genes = np.tile(x, (1000, 1))
        keys = np.zeros(1000)
        changed = 0
        total = 0
        for _ in range(170):
            draws = _variation_draws(rng, 1000, 1000, 3, cross=0.95)
            kids = _spawn_children(genes, keys, keys, lower, upper, 1000,
                                   _ScriptedRng(draws))
            changed += int((kids != x).sum())
            total += kids.size
        rate = changed / total
        p = 1.0 / 3.0
        sigma = np.sqrt(p * (1 - p) / total)
        assert abs(rate - p) < 3.0 * sigma

    def test_mutation_wrapper_default_rate_is_one_over_genes(self):
        system = load_system("system1")
        lower, upper = system.gene_bounds()
        rng = np.random.default_rng(7)
        mid = 0.5 * (lower + upper)
        keys = np.zeros(4)
        changed = 0
        total = 0
        for _ in range(750):
            draws = _variation_draws(rng, 4, 4, system.n_genes, cross=0.95)
            kids = _spawn_children(np.tile(mid, (4, 1)), keys, keys, lower,
                                   upper, 4, _ScriptedRng(draws))
            changed += int((kids != mid).sum())
            total += kids.size
        rate = changed / total
        p = 1.0 / system.n_genes
        sigma = np.sqrt(p * (1 - p) / total)
        assert abs(rate - p) < 3.0 * sigma

    def test_matches_operator_oracle(self):
        # scripted draws in the order _spawn_children takes them. Genes 0
        # of the first pair's SBX children leave the box (-0.145 and
        # 1.145) and then mutate, so mutating before clipping, or any
        # reordered draw, moves the result. The second pair does not
        # cross (0.95); mutation flags below 1/3 mutate
        lower, upper = np.zeros(3), np.array([1.0, 2.0, 4.0])
        genes = np.array([[0.02, 1.0, 2.0], [0.98, 0.5, 3.5],
                          [0.5, 1.5, 0.1]])
        primary = np.array([0.0, 0.0, 1.0])
        secondary = np.array([0.0, 1.0, 2.0])
        # winners 0, 1, 2, 0: pairs (row 0, row 1) and (row 2, row 0)
        draws = [_pairs((0, 2), (1, 2), (2, 2), (1, 0)),
                 [0.3, 0.95],
                 [[0.999, 0.2, 0.7], [0.1, 0.9, 0.4]],
                 [[0.1, 0.6, 0.3], [0.2, 0.1, 0.7]],
                 [[0.1, 0.9, 0.2], [0.05, 0.6, 0.9],
                  [0.4, 0.02, 0.8], [0.7, 0.1, 0.4]],
                 [[0.8, 0.3, 0.1], [0.2, 0.6, 0.45],
                  [0.5, 0.05, 0.9], [0.35, 0.97, 0.55]]]
        kids = _spawn_children(genes, primary, secondary, lower, upper, 4,
                               _ScriptedRng(draws))
        cross, u, swap, mutate, r = (np.asarray(d) for d in draws[1:])
        want = oracles.sbx_pm_children(
            [(genes[0].tolist(), genes[1].tolist()),
             (genes[2].tolist(), genes[0].tolist())],
            (cross < CROSSOVER_PROB).tolist(), u.tolist(),
            (swap < 0.5).tolist(), (mutate < 1.0 / 3).tolist(), r.tolist(),
            lower.tolist(), upper.tolist(), SBX_ETA, PM_ETA)
        assert np.allclose(kids, want, rtol=0.0, atol=1e-12)


class TestTournament:
    def test_single_individual_archive(self):
        rng = np.random.default_rng(0)
        assert _tournament(np.zeros(1), np.zeros(1), 4, rng).tolist() \
            == [0, 0, 0, 0]

    def test_scripted_draws(self):
        veff, fitness = np.zeros(2), np.array([1.0, 2.0])
        rng = _ScriptedRng([_pairs((0, 1), (1, 0), (1, 1), (0, 0))])
        # lower fitness wins either way round; equal draws return themselves
        assert _tournament(veff, fitness, 4, rng).tolist() == [0, 0, 1, 0]

    def test_feasible_beats_infeasible(self):
        veff = _effective_violation(np.array([0.5, 0.0]))
        fitness = np.array([0.0, 99.0])
        rng = _ScriptedRng([_pairs((0, 1), (1, 0))])
        assert _tournament(veff, fitness, 2, rng).tolist() == [1, 1]

    def test_violation_below_tolerance_is_feasible(self):
        veff = _effective_violation(np.array([1e-12, 0.0]))
        fitness = np.array([1.0, 2.0])
        rng = _ScriptedRng([_pairs((1, 0))])
        assert _tournament(veff, fitness, 1, rng).tolist() == [0]

    def test_rank_then_crowding(self):
        # NSGA2's key: lower rank wins, then larger crowding; two
        # infinite crowding values tie and keep the first draw
        ranks = np.array([0, 1, 0, 0])
        neg_crowd = -np.array([0.5, 9.0, np.inf, np.inf])
        rng = _ScriptedRng([_pairs((1, 0), (0, 1), (0, 2), (2, 0), (3, 2),
                                   (2, 3))])
        assert _tournament(ranks, neg_crowd, 6, rng).tolist() \
            == [0, 0, 2, 2, 3, 2]

    def test_seeded_determinism(self):
        fitness = _indicator_fitness(
            np.random.default_rng(8).random((10, 2))).sum(axis=0)
        veff = np.zeros(10)
        first = _tournament(veff, fitness, 10, np.random.default_rng(99))
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        winners_a = [_tournament(veff, fitness, 10, rng_a).tolist()
                     for _ in range(5)]
        winners_b = [_tournament(veff, fitness, 10, rng_b).tolist()
                     for _ in range(5)]
        assert winners_a == winners_b
        assert first.tolist() == winners_a[0]

    def test_better_of_two_wins_three_quarters(self):
        # drawing both slots uniformly leaves the worse individual only the
        # (worse, worse) draw, so the better one wins 3 of 4 draws
        fitness = np.array([1.0, 2.0])
        veff = np.zeros(2)
        rng = np.random.default_rng(12345)
        n = 100000
        wins = int((_tournament(veff, fitness, n, rng) == 0).sum())
        sigma = np.sqrt(0.75 * 0.25 / n)
        assert abs(wins / n - 0.75) < 3.0 * sigma


class TestSetup:
    def test_first_population_is_the_seeded_draw_evaluated(self,
                                                            monkeypatch):
        system = load_system("system2")
        cfg = _cfg(population_size=6, rng_seed=3)
        lower, upper = system.gene_bounds()
        draw = np.random.default_rng(3).random((6, system.n_genes)) \
            * (upper - lower) + lower
        ev = evaluate_batch(draw, system)
        select = engine._indicator_select
        for mode, cols in (("chpeed", [ev.cost, ev.emission]),
                           ("chped", [ev.cost])):
            seen = []

            def evaluate_spy(genes, *args):
                seen.append(genes)
                return evaluate_batch(genes, *args)

            def select_spy(objs, viol, ecfg, **kw):
                seen.append((objs, viol))
                return select(objs, viol, ecfg, **kw)

            monkeypatch.setattr(engine, "evaluate_batch", evaluate_spy)
            monkeypatch.setattr(engine, "_indicator_select", select_spy)
            front = run(system, cfg, mode=mode)
            monkeypatch.undo()
            genes, (objs, viol) = seen
            assert np.array_equal(genes, draw)
            assert np.array_equal(objs, np.column_stack(cols))
            assert np.array_equal(viol, ev.violation)
            assert all(any(np.array_equal(g, h) for h in ev.genes)
                       for g in front.genes)

    def test_configured_mutation_rate_is_passed_through(self, monkeypatch):
        # run breeds population_size children at the fixed rates: with no
        # crossover and every mutation flag at 1/n_genes the children are
        # the tournament winners; one flag just below it mutates a gene,
        # moved toward the middle of its box
        system = load_system("system1")
        m = system.n_genes
        calls = []

        def spy(genes, primary, secondary, lower, upper, n, rng):
            draws = _variation_draws(rng, genes.shape[0], n, m, cross=0.95,
                                     mutate=1.0 / m)
            winners = genes[_tournament(primary, secondary, n,
                                        _ScriptedRng(draws[:1]))]
            draws[4][0, 0] = np.nextafter(1.0 / m, 0.0)
            low_half = winners[0, 0] < 0.5 * (lower[0] + upper[0])
            draws[5][0, 0] = 0.75 if low_half else 0.25
            kids = _spawn_children(genes, primary, secondary, lower, upper,
                                   n, _ScriptedRng(draws))
            calls.append((n, kids, winners))
            return kids

        monkeypatch.setattr(engine, "_spawn_children", spy)
        run(system, _cfg(max_evaluations=8))
        ((n, kids, winners),) = calls
        assert n == 4
        moved = kids != winners
        assert moved[0, 0] and not moved.ravel()[1:].any()


class TestStepEightPrune:
    def test_nondominated_archive_keeps_both_extremes(self):
        # on a mutually non-dominated set the per-objective boundary points
        # are exactly the two extremes, so truncation by crowding keeps
        # them both
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            costs = np.sort(rng.random(n))
            ems = -np.sort(-rng.random(n))
            objs = np.column_stack([costs, ems])
            n_keep = int(rng.integers(2, n + 1))
            keep = _crowding_truncate(objs, np.zeros(n), n_keep)
            assert int(np.argmin(objs[:, 0])) in keep
            assert int(np.argmin(objs[:, 1])) in keep

    def test_mixed_archive_never_drops_both_extremes(self):
        # dominated interior points may push one boundary individual out,
        # but the cheapest and the cleanest point never vanish together
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(4, 40))
            objs = rng.random((n, 2))
            n_keep = int(rng.integers(3, n + 1))
            keep = _crowding_truncate(objs, np.zeros(n), n_keep)
            cheap = int(np.argmin(objs[:, 0])) in keep
            clean = int(np.argmin(objs[:, 1])) in keep
            assert cheap or clean

    def test_crowding_recomputed_after_each_removal(self):
        # front on cost + emission = 100 at costs 0, 10, 21, 30, 40, 100;
        # both spans are 100, so an interior row's crowding is
        # 2 * (right cost - left cost) / 100:
        #   first pass  10: 0.42  21: 0.40  30: 0.38  40: 1.40
        # a single-pass cut to 4 drops 30 and 21 and leaves the gap 10..40.
        # Dropping 30 and recomputing gives
        #   second pass 10: 0.42  21: 0.60  40: 1.58
        # so the iterative cut drops 10 instead
        costs = np.array([0.0, 10.0, 21.0, 30.0, 40.0, 100.0])
        objs = np.column_stack([costs, 100.0 - costs])
        single = np.sort(np.argsort(-_crowding(objs), kind="stable")[:4])
        assert single.tolist() == [0, 1, 4, 5]
        keep = _crowding_truncate(objs, np.zeros(6), 4)
        assert keep.tolist() == [0, 2, 4, 5]

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=400)
    @given(pool=_pools())
    def test_matches_recompute_per_removal(self, pool):
        objs, viol, n_keep = pool
        keep = _crowding_truncate(objs, viol, n_keep)
        want = oracles.crowding_truncate_recompute(
            objs, _fronts(_fast_nds(objs, viol)), n_keep)
        assert keep.tolist() == want

    def test_all_infinite_crowding_removes_the_first_row(self):
        # every row is an extreme of one objective; the first goes, and
        # the crowding of the two rows left starts over
        objs = np.array([(0.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
        assert _crowding_truncate(objs, np.zeros(3), 2).tolist() == [1, 2]

    def test_worst_front_goes_before_crowding_is_read(self):
        # rows 1 and 3 are dominated by row 2; they go first even though
        # row 1, the worst on both axes, has infinite crowding within the
        # whole set
        objs = np.array([[0.0, 4.0], [9.0, 9.0], [2.0, 2.0], [8.0, 8.5],
                         [4.0, 0.0]])
        assert _crowding_truncate(objs, np.zeros(5), 3).tolist() == [0, 2, 4]
        # an infeasible row ranks behind every feasible one
        viol = np.array([0.0, 0.0, 0.5, 0.0, 0.0])
        assert _crowding_truncate(objs, viol, 4).tolist() == [0, 1, 3, 4]


class TestRuns:
    def setup_method(self):
        self.sys1 = load_system("system1")
        self.sys2 = load_system("system2")

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            run(self.sys1, _cfg(population_size=4, max_evaluations=8),
                mode="economic")

    def test_seeded_runs_are_byte_identical(self):
        cfg = EngineConfig(population_size=20, max_evaluations=400,
                           rng_seed=7)
        a = run(self.sys1, cfg, mode="chped")
        b = run(self.sys1, cfg, mode="chped")
        assert a.genes.tobytes() == b.genes.tobytes()
        assert a.objectives.tobytes() == b.objectives.tobytes()
        assert a.violations.tobytes() == b.violations.tobytes()
        assert a.n_evaluations == b.n_evaluations == 400

    def test_different_seeds_differ(self):
        cfg = EngineConfig(population_size=20, max_evaluations=400,
                           rng_seed=7)
        other = EngineConfig(population_size=20, max_evaluations=400,
                             rng_seed=8)
        a = run(self.sys1, cfg, mode="chped")
        b = run(self.sys1, other, mode="chped")
        assert a.genes.tobytes() != b.genes.tobytes()

    def test_front_is_feasible_and_mutually_nondominated(self):
        cfg = EngineConfig(population_size=24, max_evaluations=480,
                           rng_seed=5)
        front = run(self.sys2, cfg)
        assert len(front) >= 1
        assert (front.violations < 1e-6).all()
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not dominates(front.objectives[i],
                                         front.objectives[j])

    def test_chped_front_is_single_objective(self):
        cfg = EngineConfig(population_size=20, max_evaluations=400,
                           rng_seed=2)
        front = run(self.sys1, cfg, mode="chped")
        assert front.objectives.shape[1] == 1
        assert (front.objectives > 0.0).all()

    def test_nsga2_runs_and_is_deterministic(self):
        cfg = EngineConfig(population_size=20, max_evaluations=400,
                           rng_seed=4, algorithm="NSGA2")
        a = run(self.sys2, cfg)
        b = run(self.sys2, cfg)
        assert np.array_equal(a.genes, b.genes)
        for i in range(len(a)):
            for j in range(len(a)):
                if i != j:
                    assert not dominates(a.objectives[i], a.objectives[j])

    def test_final_front_drops_duplicates_and_dominated(self):
        genes = np.array([
            [0.0, 100.0, 50.0, 50.0, 60.0, 10.0],
            [0.0, 100.0, 50.0, 50.0, 60.0, 10.0],
            [10.0, 110.0, 60.0, 60.0, 70.0, 20.0],
            [20.0, 120.0, 70.0, 70.0, 80.0, 30.0],
        ])
        raw = np.array([(1.0, 4.0), (1.0, 4.0), (2.0, 5.0), (3.0, 1.0)])
        viol = np.zeros(4)
        front = _make_front(genes, raw, viol, evals=4)
        assert len(front) == 2
        assert front.objectives.tolist() == [[1.0, 4.0], [3.0, 1.0]]


class TestArchiveContainer:
    def test_len_and_points(self):
        arch = FrontArchive(
            genes=np.zeros((2, 6)),
            objectives=np.array([(1.0, 2.0), (3.0, 0.5)]),
            violations=np.zeros(2),
            n_evaluations=100,
        )
        assert len(arch) == 2
        assert arch.objectives.tolist() == [[1.0, 2.0], [3.0, 0.5]]
