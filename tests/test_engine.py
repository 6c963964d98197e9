import itertools

import numpy as np
import pytest

from chpdispatch import (
    ConstraintConfig,
    EngineConfig,
    FrontArchive,
    dominates,
    hypervolume_2d,
    ibea_run,
    idbea_run,
    indicator_ihd,
    load_system,
    nsga2_run,
    run,
)
from chpdispatch import engine
from chpdispatch.constraints import evaluate_batch
from chpdispatch.engine import (
    _crowding,
    _crowding_truncate,
    _effective_violation,
    _env_select,
    _fast_nds,
    _indicator_fitness,
    _make_front,
    _pm_genes,
    _ranks_and_crowding,
    _sbx_pair,
    _setup,
    _tournament_idx,
)

import oracles

KAPPA = EngineConfig().kappa


def _cfg(**kw):
    kw.setdefault("population_size", 4)
    kw.setdefault("max_evaluations", 4)
    return EngineConfig(**kw)


class _ScriptedRng:
    """Stands in for a Generator in tournament tests: hands out preset
    index pairs."""

    def __init__(self, pairs):
        self._pairs = list(pairs)

    def integers(self, low, high, size):
        return np.array(self._pairs.pop(0))


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

    def test_bad_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            _cfg(kappa=0.0)

    def test_bad_keep_fraction(self):
        with pytest.raises(ValueError, match="archive_keep_fraction"):
            _cfg(archive_keep_fraction=0.0)
        with pytest.raises(ValueError, match="archive_keep_fraction"):
            _cfg(archive_keep_fraction=1.2)

    def test_bad_algorithm(self):
        with pytest.raises(ValueError, match="algorithm must be one of"):
            _cfg(algorithm="SPEA2")

    def test_bad_probabilities(self):
        with pytest.raises(ValueError, match="crossover_prob"):
            _cfg(crossover_prob=1.5)
        with pytest.raises(ValueError, match="mutation_prob"):
            _cfg(mutation_prob=-0.1)
        with pytest.raises(ValueError, match="positive"):
            _cfg(sbx_eta=0.0)


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

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(77)
        for size in (1, 5, 20):
            pts = rng.random((size, 2))
            exact = hypervolume_2d(pts)
            mc = oracles.hypervolume_mc(pts, ref=(1.1, 1.1))
            assert exact == pytest.approx(mc, abs=1e-3)


class TestIndicator:
    def test_dominating_singleton_is_negative(self):
        v = indicator_ihd([(0.3, 0.3)], [(0.6, 0.6)])
        assert v == pytest.approx(-0.39, abs=1e-12)

    def test_dominated_singleton_is_positive(self):
        v = indicator_ihd([(0.6, 0.6)], [(0.3, 0.3)])
        assert v == pytest.approx(0.39, abs=1e-12)

    def test_identical_sets_give_zero(self):
        pts = [(0.2, 0.7), (0.5, 0.4)]
        assert indicator_ihd(pts, pts) == pytest.approx(0.0, abs=1e-12)

    def test_matches_bruteforce_on_singletons(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.random(2), rng.random(2)
            got = indicator_ihd([a], [b])
            want = oracles.indicator_pair_bruteforce(a, b)
            assert got == pytest.approx(want, abs=1e-12)


class TestFitness:
    def test_identical_individuals_equal_fitness(self):
        objs = np.array([(0.4, 0.6), (0.4, 0.6), (0.4, 0.6), (0.1, 0.9)])
        fit, _ = _indicator_fitness(objs, KAPPA)
        assert fit[0] == pytest.approx(fit[1], rel=1e-12)
        assert fit[1] == pytest.approx(fit[2], rel=1e-12)

    def test_dominated_by_both_has_largest_fitness(self):
        fit, _ = _indicator_fitness(
            np.array([(0.2, 0.3), (0.3, 0.2), (0.8, 0.9)]), KAPPA)
        assert np.argmax(fit) == 2

    def test_invariant_under_affine_rescaling(self):
        rng = np.random.default_rng(31)
        objs = rng.random((25, 2))
        base, _ = _indicator_fitness(objs, KAPPA)
        scaled, _ = _indicator_fitness(
            objs * np.array([3.5e3, 0.02]) + np.array([100.0, 7.0]), KAPPA)
        for a, b in zip(base, scaled):
            assert a == pytest.approx(b, rel=1e-9)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 26))
            objs = rng.random((n, 2))
            got, _ = _indicator_fitness(objs, KAPPA)
            want = oracles.fitness_bruteforce(objs)
            # exp terms reach ~1e8, so the comparison has to be relative
            assert np.allclose(got, want, rtol=1e-9)


class TestEnvironmentalSelection:
    def test_pool_matching_slots_is_returned_unchanged(self):
        objs = np.random.default_rng(1).random((6, 2))
        alive, _, removed = _env_select(objs, np.zeros(6), 6, KAPPA)
        assert alive.tolist() == list(range(6))
        assert removed == []

    def test_incremental_update_matches_recomputation(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            n = int(rng.integers(8, 30))
            n_keep = int(rng.integers(2, n))
            objs = rng.random((n, 2))
            viol = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
            alive, fit, removed = _env_select(objs, viol, n_keep, kappa=0.05)
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
                alive, fit, _ = _env_select(objs, viol, n_keep, kappa=0.05)
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
        _, _, removed = _env_select(np.array(objs), np.array(viol), 3, 0.05)
        assert removed == [5, 3, 4]

    def test_violation_tie_broken_by_fitness(self):
        # individuals 2 and 3 share the largest violation; 3 is dominated,
        # so it carries the larger fitness and goes first
        objs = np.array([(0.1, 0.9), (0.9, 0.1), (0.3, 0.3), (0.6, 0.6)])
        viol = np.array([0.0, 0.0, 4.0, 4.0])
        _, _, removed = _env_select(objs, viol, 2, 0.05)
        assert removed == [3, 2]

    def test_duplicate_heavy_pool_keeps_distinct_nondominated(self):
        nd = [(0.05, 0.9), (0.5, 0.5), (0.9, 0.05)]
        for pool in (nd + [(0.8, 0.8)] * 3,
                     nd + [(0.95, 0.95)] * 2 + [(0.7, 0.7)]):
            objs = np.array(pool)
            kept, _, _ = _env_select(objs, np.zeros(6), 4, KAPPA)
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
            _, _, removed = _env_select(objs, zeros, 1, 0.05)
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
        fronts, ranks, _ = _ranks_and_crowding(
            np.array([(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]), np.zeros(3))
        assert len(fronts) == 1
        assert ranks.tolist() == [0, 0, 0]

    def test_chain_gives_singleton_fronts(self):
        fronts, ranks, _ = _ranks_and_crowding(
            np.array([(0.3, 0.3), (0.2, 0.2), (0.1, 0.1)]), np.zeros(3))
        assert [len(f) for f in fronts] == [1, 1, 1]
        assert ranks.tolist() == [2, 1, 0]

    def test_infeasible_ranked_behind_feasible(self):
        _, ranks, _ = _ranks_and_crowding(
            np.array([(0.5, 0.5), (0.6, 0.6), (0.0, 0.0)]),
            np.array([0.0, 0.0, 3.0]))
        assert ranks[2] > ranks[0]
        assert ranks[2] > ranks[1]

    def test_crowding_is_computed_within_each_front(self):
        objs = np.array([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (5.0, 5.0)])
        _, ranks, crowd = _ranks_and_crowding(objs, np.zeros(4))
        assert ranks.tolist() == [0, 0, 0, 1]
        assert np.array_equal(crowd[:3], _crowding(objs[:3]))
        assert np.isinf(crowd[3])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            objs = rng.random((n, 2)).round(2)
            got = [sorted(f.tolist()) for f in _fast_nds(objs, np.zeros(n))]
            want = [sorted(f)
                    for f in oracles.nondominated_fronts_bruteforce(objs)]
            assert got == want


class TestVariation:
    def setup_method(self):
        self.lower = np.zeros(6)
        self.upper = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_sbx_without_event_copies_parents(self):
        rng = np.random.default_rng(0)
        a, b = np.full(6, 0.5), np.full(6, 1.5)
        c1, c2 = _sbx_pair(a, b, self.lower, self.upper,
                           _cfg(crossover_prob=0.0), rng)
        assert np.array_equal(c1, a) and np.array_equal(c2, b)
        assert c1 is not a and c2 is not b

    def test_sbx_identical_parents_identical_children(self):
        rng = np.random.default_rng(1)
        a = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        for _ in range(20):
            c1, c2 = _sbx_pair(a, a.copy(), self.lower, self.upper,
                               _cfg(crossover_prob=1.0), rng)
            assert np.allclose(c1, a, atol=1e-12)
            assert np.allclose(c2, a, atol=1e-12)

    def test_sbx_children_stay_in_bounds(self):
        rng = np.random.default_rng(2)
        cfg = _cfg()
        span = self.upper - self.lower
        for _ in range(20000):
            a = self.lower + rng.random(6) * span
            b = self.lower + rng.random(6) * span
            c1, c2 = _sbx_pair(a, b, self.lower, self.upper, cfg, rng)
            assert (c1 >= self.lower).all() and (c1 <= self.upper).all()
            assert (c2 >= self.lower).all() and (c2 <= self.upper).all()

    def test_mutation_probability_zero_is_identity(self):
        rng = np.random.default_rng(4)
        x = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        y = _pm_genes(x, self.lower, self.upper, _cfg(), rng, pm_prob=0.0)
        assert np.array_equal(y, x)
        assert y is not x

    def test_mutation_at_lower_bound_only_moves_up(self):
        rng = np.random.default_rng(5)
        x = self.lower.copy()
        saw_increase = False
        for _ in range(500):
            y = _pm_genes(x, self.lower, self.upper, _cfg(), rng, pm_prob=1.0)
            assert (y >= self.lower).all()
            saw_increase = saw_increase or (y > self.lower).any()
        assert saw_increase

    def test_mutation_event_rate(self):
        rng = np.random.default_rng(6)
        x = 0.5 * (self.lower + self.upper)
        big_lower = np.tile(self.lower, 200)
        big_upper = np.tile(self.upper, 200)
        big_x = np.tile(x, 200)
        changed = 0
        total = 0
        for _ in range(850):
            y = _pm_genes(big_x, big_lower, big_upper, _cfg(), rng,
                          pm_prob=0.3)
            changed += int((y != big_x).sum())
            total += big_x.shape[0]
        rate = changed / total
        sigma = np.sqrt(0.3 * 0.7 / total)
        assert abs(rate - 0.3) < 3.0 * sigma

    def test_mutation_wrapper_default_rate_is_one_over_genes(self,
                                                             monkeypatch):
        # the loops' shared set-up hands _spawn_children the rate
        system = load_system("system1")
        lower, upper = system.gene_bounds()
        cfg = _cfg()  # mutation_prob None
        rates = []
        monkeypatch.setattr(engine, "_spawn_children",
                            lambda *args: rates.append(args[-1]) or args[0])
        breed, (genes, _, _) = _setup(system, cfg, ConstraintConfig(),
                                      "chpeed")
        breed(genes, None)
        (pm_prob,) = rates
        rng = np.random.default_rng(7)
        mid = 0.5 * (lower + upper)
        changed = 0
        total = 0
        for _ in range(3000):
            y = _pm_genes(mid, lower, upper, cfg, rng, pm_prob)
            changed += int((y != mid).sum())
            total += 6
        rate = changed / total
        p = 1.0 / 6.0
        sigma = np.sqrt(p * (1 - p) / total)
        assert abs(rate - p) < 3.0 * sigma


class TestTournament:
    def test_single_individual_archive(self):
        rng = np.random.default_rng(0)
        assert _tournament_idx(np.zeros(1), np.zeros(1), rng) == 0

    def test_scripted_draws(self):
        veff, fitness = np.zeros(2), np.array([1.0, 2.0])
        rng = _ScriptedRng([(0, 1), (1, 0), (1, 1), (0, 0)])
        # lower fitness wins either way round; equal draws return themselves
        assert _tournament_idx(veff, fitness, rng) == 0
        assert _tournament_idx(veff, fitness, rng) == 0
        assert _tournament_idx(veff, fitness, rng) == 1
        assert _tournament_idx(veff, fitness, rng) == 0

    def test_feasible_beats_infeasible(self):
        veff = _effective_violation(np.array([0.5, 0.0]))
        fitness = np.array([0.0, 99.0])
        rng = _ScriptedRng([(0, 1), (1, 0)])
        assert _tournament_idx(veff, fitness, rng) == 1
        assert _tournament_idx(veff, fitness, rng) == 1

    def test_violation_below_tolerance_is_feasible(self):
        veff = _effective_violation(np.array([1e-12, 0.0]))
        fitness = np.array([1.0, 2.0])
        rng = _ScriptedRng([(1, 0)])
        assert _tournament_idx(veff, fitness, rng) == 0

    def test_rank_then_crowding(self):
        # NSGA2's key: lower rank wins, then larger crowding; two
        # infinite crowding values tie and keep the first draw
        ranks = np.array([0, 1, 0, 0])
        neg_crowd = -np.array([0.5, 9.0, np.inf, np.inf])
        rng = _ScriptedRng([(1, 0), (0, 1), (0, 2), (2, 0), (3, 2), (2, 3)])
        assert [_tournament_idx(ranks, neg_crowd, rng) for _ in range(6)] \
            == [0, 0, 2, 2, 3, 2]

    def test_seeded_determinism(self):
        fitness, _ = _indicator_fitness(
            np.random.default_rng(8).random((10, 2)), KAPPA)
        veff = np.zeros(10)
        first = [_tournament_idx(veff, fitness, np.random.default_rng(99))
                 for _ in range(1)]
        winners_a = []
        winners_b = []
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        for _ in range(50):
            winners_a.append(_tournament_idx(veff, fitness, rng_a))
            winners_b.append(_tournament_idx(veff, fitness, rng_b))
        assert winners_a == winners_b
        assert first[0] == winners_a[0]

    def test_better_of_two_wins_three_quarters(self):
        # drawing both slots uniformly leaves the worse individual only the
        # (worse, worse) draw, so the better one wins 3 of 4 draws
        fitness = np.array([1.0, 2.0])
        veff = np.zeros(2)
        rng = np.random.default_rng(12345)
        n = 100000
        wins = sum(
            _tournament_idx(veff, fitness, rng) == 0 for _ in range(n)
        )
        sigma = np.sqrt(0.75 * 0.25 / n)
        assert abs(wins / n - 0.75) < 3.0 * sigma


class TestSetup:
    def test_first_population_is_the_seeded_draw_evaluated(self):
        system = load_system("system2")
        cfg = _cfg(population_size=6, max_evaluations=6, rng_seed=3)
        lower, upper = system.gene_bounds()
        draw = np.random.default_rng(3).random((6, system.n_genes)) \
            * (upper - lower) + lower
        ev = evaluate_batch(draw, system, ConstraintConfig())
        for mode, cols in (("chpeed", [ev.cost, ev.emission]),
                           ("chped", [ev.cost])):
            _, (genes, objs, viol) = _setup(system, cfg, ConstraintConfig(),
                                            mode)
            assert np.array_equal(genes, ev.genes)
            assert np.array_equal(objs, np.column_stack(cols))
            assert np.array_equal(viol, ev.violation)

    def test_configured_mutation_rate_is_passed_through(self, monkeypatch):
        rates = []
        monkeypatch.setattr(engine, "_spawn_children",
                            lambda *args: rates.append(args[-1]) or args[0])
        breed, (genes, _, _) = _setup(load_system("system1"),
                                      _cfg(mutation_prob=0.25),
                                      ConstraintConfig(), "chpeed")
        breed(genes, None)
        assert rates == [0.25]


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
        a = idbea_run(self.sys1, cfg, mode="chped")
        b = idbea_run(self.sys1, cfg, mode="chped")
        assert a.genes.tobytes() == b.genes.tobytes()
        assert a.objectives.tobytes() == b.objectives.tobytes()
        assert a.violations.tobytes() == b.violations.tobytes()
        assert a.n_evaluations == b.n_evaluations == 400

    def test_different_seeds_differ(self):
        cfg = EngineConfig(population_size=20, max_evaluations=400,
                           rng_seed=7)
        other = EngineConfig(population_size=20, max_evaluations=400,
                             rng_seed=8)
        a = idbea_run(self.sys1, cfg, mode="chped")
        b = idbea_run(self.sys1, other, mode="chped")
        assert a.genes.tobytes() != b.genes.tobytes()

    def test_full_archive_keep_turns_idbea_into_ibea(self):
        cfg = EngineConfig(population_size=16, max_evaluations=320,
                           rng_seed=3)
        plain = ibea_run(self.sys2, cfg)
        kept = idbea_run(self.sys2,
                         EngineConfig(population_size=16,
                                      max_evaluations=320, rng_seed=3,
                                      archive_keep_fraction=1.0))
        assert plain.algorithm == "IBEA"
        assert kept.algorithm == "IDBEA"
        assert np.array_equal(plain.genes, kept.genes)
        assert np.array_equal(plain.objectives, kept.objectives)

    def test_front_is_feasible_and_mutually_nondominated(self):
        cfg = EngineConfig(population_size=24, max_evaluations=480,
                           rng_seed=5)
        front = idbea_run(self.sys2, cfg)
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
        front = idbea_run(self.sys1, cfg, mode="chped")
        assert front.objectives.shape[1] == 1
        assert (front.objectives > 0.0).all()

    def test_nsga2_runs_and_is_deterministic(self):
        cfg = EngineConfig(population_size=20, max_evaluations=400,
                           rng_seed=4, algorithm="NSGA2")
        a = nsga2_run(self.sys2, cfg)
        b = nsga2_run(self.sys2, cfg)
        assert a.algorithm == "NSGA2"
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
        cfg = EngineConfig(population_size=4, max_evaluations=4)
        front = _make_front(genes, raw, viol, self.sys1, cfg, seed=0,
                            evals=4)
        assert len(front) == 2
        assert front.points == [(1.0, 4.0), (3.0, 1.0)]
        assert front.run_id == "system1-IDBEA-s0"
        assert front.system_id == "system1"


class TestArchiveContainer:
    def test_len_and_points(self):
        arch = FrontArchive(
            genes=np.zeros((2, 6)),
            objectives=np.array([(1.0, 2.0), (3.0, 0.5)]),
            violations=np.zeros(2),
            run_id="r", seed=1, system_id="s", algorithm="IDBEA",
            n_evaluations=100,
        )
        assert len(arch) == 2
        assert arch.points == [(1.0, 2.0), (3.0, 0.5)]
