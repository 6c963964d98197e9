import warnings

import numpy as np
import pytest

from chpdispatch import (
    ConstraintConfig,
    DispatchVector,
    balance_residuals,
    capacity_violation,
    load_system,
    repair,
    repair_batch,
    total_cost,
    total_emission,
)
from chpdispatch.constraints import evaluate_batch, resolve_slack_units
from chpdispatch.model import (capacity_violation_batch, cost_batch,
                               emission_batch, loss_batch)

import oracles


def _random_genes(system, n, seed):
    lower, upper = system.gene_bounds()
    rng = np.random.default_rng(seed)
    return lower + rng.random((n, system.n_genes)) * (upper - lower)


class TestConfig:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            ConstraintConfig(mode="clip")

    def test_bad_fixed_point_settings(self):
        with pytest.raises(ValueError, match="tol"):
            ConstraintConfig(loss_fixed_point_tol=0.0)
        with pytest.raises(ValueError, match="at least 1"):
            ConstraintConfig(loss_fixed_point_max_iters=0)


class TestSlackResolution:
    def test_defaults_pick_largest_unit(self):
        s3 = load_system("system3")
        pk, hk = resolve_slack_units(s3, ConstraintConfig())
        assert pk == 3  # the 250 MW unit
        assert hk == 0
        s1 = load_system("system1")
        assert resolve_slack_units(s1, ConstraintConfig()) == (0, 0)

    def test_explicit_override(self):
        s3 = load_system("system3")
        cfg = ConstraintConfig(power_slack_index=1, heat_slack_index=0)
        assert resolve_slack_units(s3, cfg) == (1, 0)

    def test_out_of_range_rejected(self):
        s1 = load_system("system1")
        with pytest.raises(ValueError, match="power_slack_index"):
            resolve_slack_units(s1, ConstraintConfig(power_slack_index=5))
        with pytest.raises(ValueError, match="heat_slack_index"):
            resolve_slack_units(s1, ConstraintConfig(heat_slack_index=-1))


class TestRepair:
    def test_feasible_vector_is_fixed_point(self):
        system = load_system("system1")
        vec = DispatchVector(p=[0.0], o=[160.0, 40.0], h=[40.0, 75.0], t=[0.0])
        out = repair(vec, system, ConstraintConfig())
        assert np.allclose(out.to_genes(), vec.to_genes(), atol=1e-9)

    def test_box_clamp(self):
        system = load_system("system2")
        g = _random_genes(system, 50, 1)
        g[:, 0] = 500.0  # far above the 135 MW ceiling
        r = repair_batch(g, system, ConstraintConfig())
        lower, upper = system.gene_bounds()
        assert np.all(r >= lower - 1e-9) and np.all(r <= upper + 1e-9)

    def test_region_projection(self):
        system = load_system("system1")
        vec = DispatchVector(p=[0.0], o=[90.0, 40.0], h=[170.0, 75.0], t=[0.0])
        out = repair(vec, system, ConstraintConfig())
        region = system.cogen_units[0].region
        assert region.contains((out.o[0], out.h[0]))
        assert capacity_violation(out, system) == 0.0

    def test_balance_closure_without_loss(self):
        # A few starting points are genuinely unclosable (cogen powers at
        # narrow region tips leave no heat room), so the claim is
        # fractional; closed rows are exact to linear round-off.
        system = load_system("system2")
        r = repair_batch(_random_genes(system, 200, 2), system, ConstraintConfig())
        res = np.array([balance_residuals(DispatchVector.from_genes(row, system),
                                          system) for row in r])
        closed = np.all(np.abs(res) < 1e-9, axis=1)
        assert closed.mean() >= 0.97

    def test_balance_closure_with_loss(self):
        system = load_system("system3")
        r = repair_batch(_random_genes(system, 200, 3), system, ConstraintConfig())
        p, o, h, t = system.split_genes(r)
        loss = np.array([oracles.sys3_loss(*row[[0, 1, 2, 3, 4, 5]]) for row in r])
        p_res = p.sum(axis=1) + o.sum(axis=1) - 600.0 - loss
        h_res = h.sum(axis=1) + t.sum(axis=1) - 150.0
        closed = (np.abs(p_res) < 1e-6) & (np.abs(h_res) < 1e-6)
        assert closed.mean() >= 0.97

    def test_repair_is_idempotent(self):
        cfg = ConstraintConfig()
        for name in ("system1", "system2", "system3"):
            system = load_system(name)
            r1 = repair_batch(_random_genes(system, 300, 4), system, cfg)
            r2 = repair_batch(r1, system, cfg)
            assert np.abs(r2 - r1).max() < 1e-9

    def test_repair_never_breaks_regions(self):
        cfg = ConstraintConfig()
        for name in ("system1", "system2", "system3"):
            system = load_system(name)
            r = repair_batch(_random_genes(system, 500, 5), system, cfg)
            p, o, h, t = system.split_genes(r)
            cap = capacity_violation_batch(p, o, h, t, system)
            assert cap.max() == 0.0

    def test_input_not_mutated(self):
        system = load_system("system1")
        g = _random_genes(system, 10, 6)
        keep = g.copy()
        repair_batch(g, system, ConstraintConfig())
        assert np.array_equal(g, keep)

    def test_statistical_closure_with_loss(self):
        # 10^4 uniform random vectors; the slack plus redistribution must
        # close both balances in at least 99% of them.
        system = load_system("system3")
        r = repair_batch(_random_genes(system, 10_000, 42), system,
                         ConstraintConfig())
        p, o, h, t = system.split_genes(r)
        p_res = p.sum(axis=1) + o.sum(axis=1) - 600.0 - loss_batch(p, o, system)
        h_res = h.sum(axis=1) + t.sum(axis=1) - 150.0
        closed = (np.abs(p_res) < 1e-6) & (np.abs(h_res) < 1e-6)
        assert closed.mean() >= 0.99
        for j, u in enumerate(system.cogen_units):
            for k in range(0, 10_000, 7):
                assert oracles.polygon_contains_crossing(
                    u.region.vertices, (o[k, j], h[k, j]))

    def test_fixed_point_warning_on_iteration_starvation(self):
        system = load_system("system3")
        cfg = ConstraintConfig(loss_fixed_point_max_iters=1,
                               loss_fixed_point_tol=1e-9)
        g = _random_genes(system, 50, 8)
        with pytest.warns(RuntimeWarning, match="fixed point"):
            repair_batch(g, system, cfg)

    def test_no_warning_under_default_budget(self):
        system = load_system("system3")
        g = _random_genes(system, 200, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repair_batch(g, system, ConstraintConfig())


class TestSaturation:
    def test_deep_deficit_closed_through_redistribution(self):
        # Everything starts at its floor; both slacks saturate, so closure
        # has to spread the rest across the other outputs.
        system = load_system("system2")
        vec = DispatchVector(p=[35.0], o=[44.0, 20.0, 86.0],
                             h=[0.0, 0.0, 0.0], t=[0.0])
        out = repair(vec, system, ConstraintConfig())
        p_res, h_res = balance_residuals(out, system)
        assert abs(h_res) < 1e-9
        assert abs(p_res) < 1e-9
        assert capacity_violation(out, system) == 0.0

    def test_impossible_power_demand_leaves_residual(self, tmp_path):
        f = tmp_path / "tiny.json"
        f.write_text(
            '{"demand": {"power": 100, "heat": 0},'
            ' "power_units": [{"p_min": 0, "p_max": 30, "cost_linear": 1},'
            '                 {"p_min": 0, "p_max": 40, "cost_linear": 1}]}'
        )
        system = load_system(f)
        vec = DispatchVector(p=[0.0, 0.0], o=[], h=[], t=[])
        out = repair(vec, system, ConstraintConfig())
        assert np.allclose(out.p, [30.0, 40.0])
        p_res, _ = balance_residuals(out, system)
        assert p_res == pytest.approx(-30.0, abs=1e-12)

    def test_excess_heat_beyond_floors_leaves_residual(self):
        # Both cogen powers pinned low force high heat floors; with the
        # slack already at zero the excess is not absorbable.
        system = load_system("system1")
        g = np.array([[0.0, 81.0, 40.0, 104.8, 75.0, 0.0]])
        r = repair_batch(g, system, ConstraintConfig())
        vec = DispatchVector.from_genes(r[0], system)
        _, h_res = balance_residuals(vec, system)
        assert h_res > 1.0


def _evaluate_one(vec, system, cfg):
    """(cost, emission, violation) of one dispatch through the batch path."""
    ev = evaluate_batch(vec.to_genes()[None, :], system, cfg)
    return float(ev.cost[0]), float(ev.emission[0]), float(ev.violation[0])


class TestPenalty:
    def test_feasible_objectives_unchanged(self):
        system = load_system("system1")
        vec = DispatchVector(p=[0.0], o=[160.0, 40.0], h=[40.0, 75.0], t=[0.0])
        cost, emission, viol = _evaluate_one(vec, system, ConstraintConfig())
        assert viol == 0.0
        assert cost == total_cost(vec, system)
        assert emission == total_emission(vec, system)

    def test_linear_penalty_composition(self):
        # the 5 MW excess enters the violation linearly; the objectives
        # stay the raw ones, since selection compares the violation as a
        # separate layer instead of adding it to cost or emission
        system = load_system("system1")
        cfg = ConstraintConfig(mode="penalty_only")
        vec = DispatchVector(p=[5.0], o=[160.0, 40.0], h=[40.0, 75.0], t=[0.0])
        cost, emission, viol = _evaluate_one(vec, system, cfg)
        assert viol == pytest.approx(5.0, abs=1e-12)
        assert cost == total_cost(vec, system)
        assert emission == total_emission(vec, system)

    def test_penalty_only_mode_keeps_genes(self):
        system = load_system("system2")
        g = _random_genes(system, 30, 11)
        ev = evaluate_batch(g, system, ConstraintConfig(mode="penalty_only"))
        assert np.array_equal(ev.genes, g)

    def test_published_infeasible_row(self):
        # A published best-cost row whose outputs sum to 166.9 MW against a
        # 200 MW demand: flagged infeasible at the source. The cheap cost
        # is bought with a 33.1 MW generation shortfall.
        system = load_system("system1")
        cfg = ConstraintConfig(mode="penalty_only")
        vec = DispatchVector(p=[0.0], o=[126.9, 40.0], h=[43.0, 75.0], t=[0.0])
        p_res, h_res = balance_residuals(vec, system)
        assert p_res == pytest.approx(-33.1, abs=1e-9)
        assert h_res == pytest.approx(3.0, abs=1e-9)
        assert capacity_violation(vec, system) == 0.0
        _, _, viol = _evaluate_one(vec, system, cfg)
        assert viol == pytest.approx(36.1, abs=1e-9)
        # Setpoints are table-rounded to 0.1 MW; with cost slopes around
        # 25 $/MW that bounds the reconstruction error near 1.3 $.
        assert total_cost(vec, system) == pytest.approx(8439.5, abs=1.5)

    def test_penalized_batch_fields(self):
        system = load_system("system3")
        g = _random_genes(system, 20, 12)
        cfg = ConstraintConfig()
        ev = evaluate_batch(g, system, cfg)
        p, o, h, t = system.split_genes(ev.genes)
        assert np.array_equal(ev.cost, cost_batch(p, o, h, t, system))
        assert np.array_equal(ev.emission, emission_batch(p, o, h, t, system))
        assert np.all(ev.violation >= 0.0)
