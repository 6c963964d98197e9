"""Acceptance gate: full-budget guarantees on the bundled benchmark systems.

These tests run complete optimizations (a few minutes in total); the rest of
the suite stays fast. The two directional quality-metric tests assert the
published comparison of the crowding-distance variant against the plain
indicator algorithm; their assertion messages carry the measured win counts
and p-values.
"""
import time

import numpy as np
import pytest

from chpdispatch import (DispatchVector, EngineConfig, ExperimentConfig,
                         ForPolygon, NormalizationBounds, evaluate, hv_metric,
                         hypervolume_2d, load_system, run, run_experiment,
                         spread_delta, wilcoxon_signed_rank)
from chpdispatch.cli import _load_experiment, _write_front_csv
from chpdispatch.engine import _crowding, _env_select, _fast_nds

import oracles
from test_model import SWEEPS, _random_dispatch

SEEDS = range(1, 11)


def _paired_runs(name, root):
    """10 seeded full-budget runs of both indicator algorithms, timed:
    (IDBEA front, its wall time, IBEA front, its wall time) per seed."""
    cfg = ExperimentConfig(
        experiment_id=name, system=name,
        algorithms=(EngineConfig(algorithm="IDBEA"),
                    EngineConfig(algorithm="IBEA")),
        repetitions=len(SEEDS), seed_base=SEEDS[0])
    run_experiment(cfg, base_dir=root)
    _, fronts, walls = _load_experiment(root / name)
    return [(fronts["IDBEA"][s], walls["IDBEA", s],
             fronts["IBEA"][s], walls["IBEA", s]) for s in SEEDS]


@pytest.fixture(scope="session")
def sys2_pairs(tmp_path_factory):
    return _paired_runs("system2", tmp_path_factory.mktemp("sys2_pairs"))


@pytest.fixture(scope="session")
def sys3_pairs(tmp_path_factory):
    return _paired_runs("system3", tmp_path_factory.mktemp("sys3_pairs"))


@pytest.fixture(scope="session")
def sys1_runs(tmp_path_factory):
    cfg = ExperimentConfig(
        experiment_id="system1", system="system1",
        algorithms=(EngineConfig(algorithm="IDBEA"),), mode="chped",
        repetitions=30, seed_base=1)
    root = tmp_path_factory.mktemp("sys1")
    run_experiment(cfg, base_dir=root)
    _, fronts, walls = _load_experiment(root / "system1")
    return load_system("system1"), [(front, walls["IDBEA", s]) for s, front
                                    in sorted(fronts["IDBEA"].items())]


def _rel_ok(got, want, rel):
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= rel * abs(want)


class TestFormulaFidelity:
    @pytest.mark.parametrize("name,bounds,mk,cost_fn,em_fn,loss_fn",
                             SWEEPS, ids=[s[0] for s in SWEEPS])
    def test_thousand_random_dispatches(self, name, bounds, mk, cost_fn,
                                        em_fn, loss_fn):
        system = load_system(name)
        rng = np.random.default_rng(2026)
        t0 = time.perf_counter()
        for _ in range(1000):
            x = _random_dispatch(bounds, rng)
            ev = evaluate(mk(x), system)
            assert _rel_ok(ev.cost, cost_fn(*x), 1e-10)
            assert _rel_ok(ev.emission, em_fn(*x), 1e-10)
            want_loss = 0.0 if loss_fn is None else loss_fn(x)
            assert _rel_ok(ev.loss, want_loss, 1e-10)
        assert time.perf_counter() - t0 < 5.0


class TestLossSanity:
    def test_published_compromise_loss_reproduced(self):
        system = load_system("system3")
        vec = DispatchVector(p=[64.5, 95.8, 95.5, 122.0], o=[188.6, 40.2],
                             h=[92.5, 57.0], t=[1.6])
        assert abs(evaluate(vec, system).loss - 6.1) < 0.15


class TestSystem2Extremes:
    def test_front_minima_within_published_slack(self, sys2_pairs):
        fronts = [fa for fa, _, _, _ in sys2_pairs]
        assert min(f.objectives[:, 0].min() for f in fronts) <= 14050.0
        assert min(f.objectives[:, 1].min() for f in fronts) <= 1.35

    def test_per_run_wall_time(self, sys2_pairs):
        assert max(ta for _, ta, _, _ in sys2_pairs) < 60.0

    def test_front_extent_covers_published_extremes(self, sys2_pairs):
        # The published extreme rows do not satisfy exact heat balance, so
        # the emission endpoints cannot track them within 2%: under exact
        # repair the low-emission corner stops near 1.19-1.27 kg (the
        # stochastic bound grants the slack) and the cheap corner digs
        # deeper than the printed economic dispatch, emitting ~3% more
        # there. Cost endpoints do track; emission is held to the bound at
        # the low end and to coverage at the high end.
        front = sys2_pairs[0][0]
        objs = front.objectives
        assert 100 <= len(front) <= 200
        assert 13900.0 * 0.98 <= objs[:, 0].min() <= 13900.0 * 1.02
        assert 17000.0 * 0.98 <= objs[:, 0].max() <= 17000.0 * 1.02
        assert objs[:, 1].min() <= 1.35
        assert objs[:, 1].max() >= 11.7 * 0.98


class TestSystem3Extremes:
    def test_front_minima_within_published_slack(self, sys3_pairs):
        fronts = [fa for fa, _, _, _ in sys3_pairs]
        assert min(f.objectives[:, 0].min() for f in fronts) <= 10400.0
        assert min(f.objectives[:, 1].min() for f in fronts) <= 8.1

    def test_all_solutions_feasible(self, sys3_pairs):
        worst = max(fa.violations.max() for fa, _, _, _ in sys3_pairs)
        assert worst < 1e-6

    def test_per_run_wall_time(self, sys3_pairs):
        assert max(ta for _, ta, _, _ in sys3_pairs) < 60.0


class TestSystem1BestOfThirty:
    def test_best_cost_with_exact_balance(self, sys1_runs):
        system, runs = sys1_runs
        best_cost, best_genes = np.inf, None
        for front, _ in runs:
            i = int(np.argmin(front.objectives[:, 0]))
            if front.objectives[i, 0] < best_cost:
                best_cost = front.objectives[i, 0]
                best_genes = front.genes[i]
        assert best_cost <= 9270.0
        ev = evaluate(DispatchVector.from_genes(best_genes, system), system)
        assert (ev.power_residual, ev.heat_residual) == (0.0, 0.0)

    def test_per_run_wall_time(self, sys1_runs):
        _, runs = sys1_runs
        assert max(t for _, t in runs) < 60.0


def _paired_metrics(pairs):
    hv_a, hv_b, sp_a, sp_b = [], [], [], []
    for fa, _, fb, _ in pairs:
        bounds = NormalizationBounds.from_fronts([fa, fb])
        hv_a.append(hv_metric(fa, bounds))
        hv_b.append(hv_metric(fb, bounds))
        sp_a.append(spread_delta(fa, bounds))
        sp_b.append(spread_delta(fb, bounds))
    return (np.array(hv_a), np.array(hv_b), np.array(sp_a), np.array(sp_b))


class TestDirectionalMetrics:
    """Published claim: the crowding-distance variant wins hypervolume and
    spread against the plain indicator algorithm in at least 8 of 10 paired
    runs, with a significant Wilcoxon on the spread pairs in that direction.
    The assertion message reports the measured win counts and p-value."""

    def _check(self, pairs, label):
        hv_a, hv_b, sp_a, sp_b = _paired_metrics(pairs)
        hv_wins = int(np.sum(hv_a >= hv_b))
        sp_wins = int(np.sum(sp_a <= sp_b))
        p, significant = wilcoxon_signed_rank(list(zip(sp_a, sp_b)))
        spread_improved = np.median(sp_a) < np.median(sp_b)
        detail = (f"{label}: hv wins {hv_wins}/10, spread wins {sp_wins}/10, "
                  f"spread wilcoxon p={p:.4f}, median spread "
                  f"{np.median(sp_a):.3f} vs {np.median(sp_b):.3f}")
        assert (hv_wins >= 8 and sp_wins >= 8
                and significant and spread_improved), detail

    def test_system2_direction(self, sys2_pairs):
        self._check(sys2_pairs, "system2")

    def test_system3_direction(self, sys3_pairs):
        self._check(sys3_pairs, "system3")


class TestOracleEquivalence:
    def test_hypervolume_vs_monte_carlo(self):
        rng = np.random.default_rng(77)
        for n in (5, 20):
            pts = rng.random((n, 2))
            exact = hypervolume_2d(pts, (1.1, 1.1))
            assert abs(exact - oracles.hypervolume_mc(pts, (1.1, 1.1))) < 1e-3

    def test_environmental_selection_incremental_vs_recompute(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            n = int(rng.integers(10, 26))
            objs = rng.random((n, 2)) * [500.0, 3.0]
            viol = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
            keep = int(rng.integers(2, n))
            alive, fit, removed = _env_select(objs, viol, keep)
            want_alive, want_removed = oracles.environmental_selection_bruteforce(
                objs, keep, violations=viol)
            assert list(alive) == want_alive
            assert removed == want_removed
            ind = oracles._normalized_indicator_matrix(objs)
            c = oracles._receiver_scales(ind)
            for i in alive:
                want = sum(np.exp(-ind[j, i] / (c[i] * 0.05))
                           for j in alive if j != i)
                assert fit[i] == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_nondominated_sort_vs_bruteforce(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            objs = rng.random((int(rng.integers(1, 40)), 2)).round(2)
            rank = _fast_nds(objs, np.zeros(objs.shape[0]))
            got = [sorted(np.flatnonzero(rank == r).tolist())
                   for r in range(rank.max() + 1)]
            want = [sorted(f)
                    for f in oracles.nondominated_fronts_bruteforce(objs)]
            assert got == want

    def test_crowding_vs_hand_computed(self):
        for objs, want in [([(1.0, 5.0), (2.0, 3.0), (4.0, 1.0)],
                            (np.inf, 2.0, np.inf)),
                           ([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)],
                            (np.inf, 1.0, np.inf))]:
            assert tuple(_crowding(np.array(objs)).tolist()) == want

    def test_wilcoxon_exact_vs_enumeration(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            diffs = [float(v) for v in rng.integers(-5, 6, n)]
            p, _ = wilcoxon_signed_rank([(d, 0.0) for d in diffs])
            assert p == oracles.wilcoxon_enumeration(diffs)

    def test_for_projection_vs_boundary_sampling(self):
        verts = [(44.0, 0.0), (125.8, 0.0), (125.8, 32.4),
                 (110.2, 135.6), (40.0, 75.0)]
        poly = ForPolygon(verts)
        rng = np.random.default_rng(81)
        pts = rng.random((20, 2)) * [160.0, 200.0] + [-10.0, -30.0]
        for q in pts:
            got = poly.project_many(q[None, :])[0][0]
            assert np.allclose(got, oracles.polygon_project_sampled(verts, q),
                               atol=1e-6)


class TestDeterminism:
    def test_repeated_run_byte_identical_dump(self, sys2_pairs, tmp_path):
        # two fresh seed-1 runs agree in engine row order, and their front
        # file is the one the experiment stored
        system = load_system("system2")
        cfg = EngineConfig(rng_seed=1, algorithm="IDBEA")
        again, once_more = run(system, cfg), run(system, cfg)
        assert again.genes.tobytes() == once_more.genes.tobytes()
        assert again.objectives.tobytes() == once_more.objectives.tobytes()
        assert again.violations.tobytes() == once_more.violations.tobytes()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_front_csv(a, sys2_pairs[0][0], system)
        _write_front_csv(b, again, system)
        assert a.read_bytes() == b.read_bytes()
