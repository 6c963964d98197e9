import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chpdispatch import (
    DispatchVector,
    ForPolygon,
    evaluate,
    load_system,
    repair_batch,
)
from chpdispatch import constraints
from chpdispatch.constraints import evaluate_batch, resolve_slack_units
from chpdispatch.model import (capacity_violation_batch, cost_batch,
                               emission_batch, loss_batch)

import oracles


def _repair_one(vec, system):
    """Repair one dispatch through the batch path."""
    return DispatchVector.from_genes(
        repair_batch(vec.to_genes()[None, :], system)[0], system)


def _random_genes(system, n, seed):
    lower, upper = system.gene_bounds()
    rng = np.random.default_rng(seed)
    return lower + rng.random((n, system.n_genes)) * (upper - lower)


def _tiny_system(tmp_path):
    """Two power-only units, 70 MW in all, against a 100 MW demand."""
    f = tmp_path / "tiny.json"
    f.write_text(
        '{"demand": {"power": 100, "heat": 0},'
        ' "power_units": [{"p_min": 0, "p_max": 30, "cost_linear": 1},'
        '                 {"p_min": 0, "p_max": 40, "cost_linear": 1}]}'
    )
    return load_system(f)


# system1 row whose cogen powers, pinned low, force heat floors above the
# heat demand: repair cannot absorb the excess
EXCESS_HEAT_ROW = [0.0, 81.0, 40.0, 104.8, 75.0, 0.0]


class TestSlackResolution:
    def test_defaults_pick_largest_unit(self):
        s3 = load_system("system3")
        pk, hk = resolve_slack_units(s3)
        assert pk == 3  # the 250 MW unit
        assert hk == 0
        s1 = load_system("system1")
        assert resolve_slack_units(s1) == (0, 0)


class TestRepair:
    def test_feasible_vector_is_fixed_point(self):
        system = load_system("system1")
        vec = DispatchVector(p=[0.0], o=[160.0, 40.0], h=[40.0, 75.0], t=[0.0])
        out = _repair_one(vec, system)
        assert np.allclose(out.to_genes(), vec.to_genes(), atol=1e-9)

    def test_box_clamp(self):
        system = load_system("system2")
        g = _random_genes(system, 50, 1)
        g[:, 0] = 500.0  # far above the 135 MW ceiling
        r = repair_batch(g, system)
        lower, upper = system.gene_bounds()
        assert np.all(r >= lower - 1e-9) and np.all(r <= upper + 1e-9)

    def test_region_projection(self):
        system = load_system("system1")
        vec = DispatchVector(p=[0.0], o=[90.0, 40.0], h=[170.0, 75.0], t=[0.0])
        out = _repair_one(vec, system)
        region = system.cogen_units[0].region
        assert region.contains_many(np.array([[out.o[0], out.h[0]]]))[0]
        assert evaluate(out, system).capacity_violation == 0.0

    def test_balance_closure_without_loss(self):
        # A few starting points are genuinely unclosable (cogen powers at
        # narrow region tips leave no heat room), so the claim is
        # fractional; closed rows are exact to linear round-off.
        system = load_system("system2")
        r = repair_batch(_random_genes(system, 200, 2), system)
        evs = [evaluate(DispatchVector.from_genes(row, system), system)
               for row in r]
        res = np.array([(ev.power_residual, ev.heat_residual) for ev in evs])
        closed = np.all(np.abs(res) < 1e-9, axis=1)
        assert closed.mean() >= 0.97

    def test_balance_closure_with_loss(self):
        system = load_system("system3")
        r = repair_batch(_random_genes(system, 200, 3), system)
        p, o, h, t = system.split_genes(r)
        loss = np.array([oracles.sys3_loss(*row[[0, 1, 2, 3, 4, 5]]) for row in r])
        p_res = p.sum(axis=1) + o.sum(axis=1) - 600.0 - loss
        h_res = h.sum(axis=1) + t.sum(axis=1) - 150.0
        closed = (np.abs(p_res) < 1e-6) & (np.abs(h_res) < 1e-6)
        assert closed.mean() >= 0.97

    def test_repair_is_idempotent(self):
        for name in ("system1", "system2", "system3"):
            system = load_system(name)
            r1 = repair_batch(_random_genes(system, 300, 4), system)
            r2 = repair_batch(r1, system)
            assert np.abs(r2 - r1).max() < 1e-9

    def test_repair_never_breaks_regions(self):
        for name in ("system1", "system2", "system3"):
            system = load_system(name)
            r = repair_batch(_random_genes(system, 500, 5), system)
            p, o, h, t = system.split_genes(r)
            cap = capacity_violation_batch(p, o, h, t, system)
            assert cap.max() == 0.0

    def test_input_not_mutated(self):
        system = load_system("system1")
        g = _random_genes(system, 10, 6)
        keep = g.copy()
        repair_batch(g, system)
        assert np.array_equal(g, keep)

    def test_statistical_closure_with_loss(self):
        # 10^4 uniform random vectors; the slack plus redistribution must
        # close both balances in at least 99% of them.
        system = load_system("system3")
        r = repair_batch(_random_genes(system, 10_000, 42), system)
        p, o, h, t = system.split_genes(r)
        p_res = p.sum(axis=1) + o.sum(axis=1) - 600.0 - loss_batch(p, o, system)
        h_res = h.sum(axis=1) + t.sum(axis=1) - 150.0
        closed = (np.abs(p_res) < 1e-6) & (np.abs(h_res) < 1e-6)
        assert closed.mean() >= 0.99
        for j, u in enumerate(system.cogen_units):
            for k in range(0, 10_000, 7):
                assert oracles.polygon_contains_crossing(
                    u.region.vertices, (o[k, j], h[k, j]))

    def test_fixed_point_warning_on_iteration_starvation(self, monkeypatch):
        system = load_system("system3")
        monkeypatch.setattr(constraints, "LOSS_FIXED_POINT_MAX_ITERS", 1)
        monkeypatch.setattr(constraints, "LOSS_FIXED_POINT_TOL", 1e-9)
        g = _random_genes(system, 50, 8)
        with pytest.warns(RuntimeWarning, match="^power balance fixed point"):
            repair_batch(g, system)

    def test_tolerance_is_the_per_row_stop_test(self, monkeypatch):
        # a coarser tolerance stops rows earlier, so fewer fixed-point
        # passes evaluate the loss
        system = load_system("system3")
        g = _random_genes(system, 200, 10)
        calls = []

        def counted(p, o, system):
            calls.append(len(p))
            return loss_batch(p, o, system)

        monkeypatch.setattr(constraints, "loss_batch", counted)
        repair_batch(g, system)
        fine = sum(calls)
        calls.clear()
        monkeypatch.setattr(constraints, "LOSS_FIXED_POINT_TOL", 1.0)
        repair_batch(g, system)
        assert 0 < sum(calls) < fine

    def test_no_warning_under_default_budget(self):
        system = load_system("system3")
        g = _random_genes(system, 200, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repair_batch(g, system)


class TestSaturation:
    def test_deep_deficit_closed_through_redistribution(self):
        # Everything starts at its floor; both slacks saturate, so closure
        # has to spread the rest across the other outputs.
        system = load_system("system2")
        vec = DispatchVector(p=[35.0], o=[44.0, 20.0, 86.0],
                             h=[0.0, 0.0, 0.0], t=[0.0])
        ev = evaluate(_repair_one(vec, system), system)
        assert abs(ev.heat_residual) < 1e-9
        assert abs(ev.power_residual) < 1e-9
        assert ev.capacity_violation == 0.0

    def test_impossible_power_demand_leaves_residual(self, tmp_path):
        system = _tiny_system(tmp_path)
        vec = DispatchVector(p=[0.0, 0.0], o=[], h=[], t=[])
        out = _repair_one(vec, system)
        assert np.allclose(out.p, [30.0, 40.0])
        assert evaluate(out, system).power_residual == pytest.approx(
            -30.0, abs=1e-12)

    def test_excess_heat_beyond_floors_leaves_residual(self):
        # Both cogen powers pinned low force high heat floors; with the
        # slack already at zero the excess is not absorbable.
        system = load_system("system1")
        r = repair_batch(np.array([EXCESS_HEAT_ROW]), system)
        vec = DispatchVector.from_genes(r[0], system)
        assert evaluate(vec, system).heat_residual > 1.0


def _evaluate_one(vec, system):
    """(cost, emission, violation) of one dispatch through the batch path."""
    ev = evaluate_batch(vec.to_genes()[None, :], system)
    return float(ev.cost[0]), float(ev.emission[0]), float(ev.violation[0])


class TestPenalty:
    def test_feasible_objectives_unchanged(self):
        system = load_system("system1")
        vec = DispatchVector(p=[0.0], o=[160.0, 40.0], h=[40.0, 75.0], t=[0.0])
        cost, emission, viol = _evaluate_one(vec, system)
        assert viol == 0.0
        ev = evaluate(vec, system)
        assert cost == ev.cost
        assert emission == ev.emission

    def test_linear_penalty_composition(self, tmp_path):
        # on rows repair cannot close, the residuals add up linearly into
        # the violation; the capacity term evaluate reports is exactly 0 on
        # a repaired row, so it adds nothing. The objectives stay the raw
        # ones, since selection compares the violation as a separate layer
        # instead of adding it to cost or emission
        for system, row in ((_tiny_system(tmp_path), [0.0, 0.0]),
                            (load_system("system1"), EXCESS_HEAT_ROW)):
            ev = evaluate_batch(np.array([row]), system)
            ref = evaluate(DispatchVector.from_genes(ev.genes[0], system),
                           system)
            assert ev.violation[0] > 1.0
            assert ev.violation[0] == abs(ref.power_residual) \
                + abs(ref.heat_residual) + ref.capacity_violation
            assert ev.cost[0] == ref.cost
            assert ev.emission[0] == ref.emission

    def test_evaluate_batch_returns_repaired_genes(self):
        system = load_system("system2")
        g = _random_genes(system, 30, 11)
        keep = g.copy()
        ev = evaluate_batch(g, system)
        assert np.array_equal(ev.genes, repair_batch(g, system))
        assert np.array_equal(g, keep)

    def test_published_infeasible_row(self):
        # A published best-cost row whose outputs sum to 166.9 MW against a
        # 200 MW demand: flagged infeasible at the source. The cheap cost
        # is bought with a 33.1 MW generation shortfall.
        system = load_system("system1")
        vec = DispatchVector(p=[0.0], o=[126.9, 40.0], h=[43.0, 75.0], t=[0.0])
        ev = evaluate(vec, system)
        assert ev.power_residual == pytest.approx(-33.1, abs=1e-9)
        assert ev.heat_residual == pytest.approx(3.0, abs=1e-9)
        assert ev.capacity_violation == 0.0
        viol = abs(ev.power_residual) + abs(ev.heat_residual) \
            + ev.capacity_violation
        assert viol == pytest.approx(36.1, abs=1e-9)
        # Setpoints are table-rounded to 0.1 MW; with cost slopes around
        # 25 $/MW that bounds the reconstruction error near 1.3 $.
        assert ev.cost == pytest.approx(8439.5, abs=1.5)

    def test_penalized_batch_fields(self):
        system = load_system("system3")
        g = _random_genes(system, 20, 12)
        ev = evaluate_batch(g, system)
        p, o, h, t = system.split_genes(ev.genes)
        assert np.array_equal(ev.cost, cost_batch(p, o, h, t, system))
        assert np.array_equal(ev.emission, emission_batch(p, o, h, t, system))
        assert np.all(ev.violation >= 0.0)


class TestNonFiniteObjectives:
    @pytest.mark.parametrize("field, value, objective", [
        ("cost_cubic", 1e306, "cost"),
        ("em_exp_rate", 10.0, "emission"),
    ])
    def test_overflow_is_refused_with_the_row_count(self, field, value,
                                                    objective):
        # built directly, so load_system's corner check never sees it
        s2 = load_system("system2")
        unit = dataclasses.replace(s2.power_units[0], **{field: value})
        system = dataclasses.replace(s2, power_units=(unit,))
        genes = _random_genes(system, 7, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            fn = cost_batch if objective == "cost" else emission_batch
            values = fn(*system.split_genes(repair_batch(genes, system)), system)
            bad = np.count_nonzero(~np.isfinite(values))
            assert bad > 0
            with pytest.raises(ValueError, match=rf"^{objective} is not "
                               rf"finite in {bad} of 7 row\(s\)"):
                evaluate_batch(genes, system)


# Derandomized, so every run of the suite draws the same examples.
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=40)


def _rows_around_box(system, max_rows):
    """Batches of gene rows up to 20% of each range outside the box: a
    seeded uniform draw of up to max_rows rows plus a few rows built
    coordinate by coordinate, which reach the box faces and corners."""
    lower, upper = system.gene_bounds()
    edge_row = st.lists(st.floats(-0.2, 1.2), min_size=system.n_genes,
                        max_size=system.n_genes)

    @st.composite
    def batches(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        frac = rng.uniform(-0.2, 1.2, (draw(st.integers(0, max_rows)),
                                       system.n_genes))
        edge = draw(st.lists(edge_row, min_size=0 if len(frac) else 1,
                             max_size=4))
        if edge:
            frac = np.vstack([frac, edge])
        return lower + frac * (upper - lower)

    return batches()


def _assert_inside_box_and_regions(system, r):
    """Repaired rows r are inside the gene box exactly, their cogeneration
    points inside their regions, and their capacity term exactly 0."""
    lower, upper = system.gene_bounds()
    assert np.all((lower <= r) & (r <= upper))
    p, o, h, t = system.split_genes(r)
    for j, u in enumerate(system.cogen_units):
        assert u.region.contains_many(np.column_stack([o[:, j], h[:, j]])).all()
    assert np.all(capacity_violation_batch(p, o, h, t, system) == 0.0)


class TestPerRowRepair:
    """A row's repair depends on that row alone, not on its batch."""

    @pytest.mark.parametrize("name", ["system1", "system2", "system3"])
    def test_batch_equals_row_by_row(self, name):
        system = load_system(name)

        @PROPERTY
        @given(_rows_around_box(system, 100))
        def check(g):
            batch = repair_batch(g, system)
            alone = np.vstack([repair_batch(row[None, :], system)
                               for row in g])
            assert np.array_equal(batch, alone)

        check()

    def test_loss_is_row_independent(self):
        system = load_system("system3")

        @PROPERTY
        @given(_rows_around_box(system, 40))
        def check(g):
            p, o, _, _ = system.split_genes(g)
            batch = loss_batch(p, o, system)
            alone = [loss_batch(p[i:i + 1], o[i:i + 1], system)[0]
                     for i in range(len(g))]
            assert np.array_equal(batch, alone)

        check()

    def test_closed_form_slack_matches_the_fixed_point(self):
        # Where the repaired slack sits strictly inside its box, iterate
        # slack = demand + loss - others 50 times from the input's slack,
        # with the other outputs as repaired and the oracle loss; the
        # closed-form root must agree with it.
        system = load_system("system3")
        pk, _ = resolve_slack_units(system)
        unit = system.power_units[pk]
        lower, upper = system.gene_bounds()

        @PROPERTY
        @given(_rows_around_box(system, 16))
        def check(g):
            r = repair_batch(g, system)
            for start, row in zip(np.clip(g, lower, upper), r):
                if not unit.p_min < row[pk] < unit.p_max:
                    continue
                x = row.copy()
                x[pk] = start[pk]
                for _ in range(50):
                    others = x[:6].sum() - x[pk]
                    x[pk] = 600.0 + oracles.sys3_loss(*x[:6]) - others
                assert abs(x[pk] - row[pk]) < 1e-9

        check()

    @pytest.mark.parametrize("name", ["system1", "system2", "system3"])
    def test_repaired_cogen_points_are_inside_their_regions(self, name):
        # evaluate_batch scores the balance residuals alone: repair must
        # leave no capacity excess for it to miss
        system = load_system(name)

        @PROPERTY
        @given(_rows_around_box(system, 100))
        def check(g):
            _assert_inside_box_and_regions(system, repair_batch(g, system))

        check()

    def test_repaired_points_are_inside_random_regions(self):
        # system2 with its three regions replaced by random convex ones,
        # whose chord moves round past a box bound without the last clip
        s2 = load_system("system2")

        @st.composite
        def cases(draw):
            units = tuple(dataclasses.replace(
                u, region=ForPolygon(draw(oracles.random_region())))
                for u in s2.cogen_units)
            system = dataclasses.replace(s2, cogen_units=units)
            return system, draw(_rows_around_box(system, 100))

        @PROPERTY
        @given(cases())
        def check(case):
            system, g = case
            _assert_inside_box_and_regions(system, repair_batch(g, system))

        check()

    @pytest.mark.parametrize("name", ["system1", "system2", "system3"])
    def test_repair_is_idempotent_around_the_box(self, name):
        # a second repair may move a row by round-off (up to 2e-13 on
        # system3), so this is a tolerance, not bit identity
        system = load_system(name)

        @PROPERTY
        @given(_rows_around_box(system, 100))
        def check(g):
            once = repair_batch(g, system)
            assert np.abs(repair_batch(once, system) - once).max() < 1e-9

        check()
