import json
from importlib import resources

import numpy as np
import pytest

from chpdispatch import (
    DispatchVector,
    HeatOnlyUnit,
    LossModel,
    PowerOnlyUnit,
    SystemLoadError,
    balance_residuals,
    capacity_violation,
    evaluate,
    load_system,
    total_cost,
    total_emission,
    transmission_loss,
)
from chpdispatch import model
from chpdispatch.model import (
    capacity_violation_batch,
    cost_batch,
    emission_batch,
    loss_batch,
)

import oracles


def _random_dispatch(bounds, rng):
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return lo + rng.random(len(bounds)) * (hi - lo)


def _sys1_vec(x):
    p1, o2, h2, o3, h3, t4 = x
    return DispatchVector(p=[p1], o=[o2, o3], h=[h2, h3], t=[t4])


def _sys2_vec(x):
    p1, o2, h2, o3, h3, o4, h4, t5 = x
    return DispatchVector(p=[p1], o=[o2, o3, o4], h=[h2, h3, h4], t=[t5])


def _sys3_vec(x):
    p1, p2, p3, p4, o5, h5, o6, h6, t7 = x
    return DispatchVector(p=[p1, p2, p3, p4], o=[o5, o6], h=[h5, h6], t=[t7])


SWEEPS = [
    ("system1", oracles.SYS1_BOUNDS, _sys1_vec,
     oracles.sys1_cost, oracles.sys1_emission, None),
    ("system2", oracles.SYS2_BOUNDS, _sys2_vec,
     oracles.sys2_cost, oracles.sys2_emission, None),
    ("system3", oracles.SYS3_BOUNDS, _sys3_vec,
     oracles.sys3_cost, oracles.sys3_emission,
     lambda x: oracles.sys3_loss(x[0], x[1], x[2], x[3], x[4], x[6])),
]


class TestFormulaFidelity:
    """Objective formulas against the independent per-system oracles."""

    @pytest.mark.parametrize("name,bounds,mk,cost_fn,em_fn,loss_fn",
                             SWEEPS, ids=[s[0] for s in SWEEPS])
    def test_random_dispatch_sweep(self, name, bounds, mk, cost_fn, em_fn, loss_fn):
        system = load_system(name)
        rng = np.random.default_rng(97)
        for _ in range(300):
            x = _random_dispatch(bounds, rng)
            vec = mk(x)
            assert total_cost(vec, system) == pytest.approx(cost_fn(*x), rel=1e-10)
            want_em = em_fn(*x)
            if want_em == 0.0:
                assert total_emission(vec, system) == 0.0
            else:
                assert total_emission(vec, system) == pytest.approx(want_em, rel=1e-10)
            if loss_fn is None:
                assert transmission_loss(vec, system) == 0.0
            else:
                assert transmission_loss(vec, system) == pytest.approx(
                    loss_fn(x), rel=1e-10)

    def test_known_optimum_first_system(self):
        system = load_system("system1")
        vec = DispatchVector(p=[0.0], o=[160.0, 40.0], h=[40.0, 75.0], t=[0.0])
        assert total_cost(vec, system) == pytest.approx(9257.075, rel=1e-12)
        assert balance_residuals(vec, system) == (0.0, 0.0)
        assert capacity_violation(vec, system) == 0.0

    def test_reported_compromise_loss(self):
        # Published compromise operating point for the 7-unit network; the
        # reported loss is 6.1 MW after table rounding.
        system = load_system("system3")
        vec = DispatchVector(
            p=[64.5, 95.8, 95.5, 122.0],
            o=[188.6, 40.2],
            h=[92.5, 57.0],
            t=[1.6],
        )
        loss = transmission_loss(vec, system)
        assert loss == pytest.approx(6.18408517, abs=1e-8)
        assert abs(loss - 6.1) < 0.15


class TestBalanceAndViolation:
    def test_power_residual_includes_loss(self):
        system = load_system("system3")
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = _random_dispatch(oracles.SYS3_BOUNDS, rng)
            vec = _sys3_vec(x)
            p_res, h_res = balance_residuals(vec, system)
            loss = oracles.sys3_loss(x[0], x[1], x[2], x[3], x[4], x[6])
            want_p = sum(x[:4]) + x[4] + x[6] - 600.0 - loss
            want_h = x[5] + x[7] + x[8] - 150.0
            assert p_res == pytest.approx(want_p, rel=1e-12, abs=1e-12)
            assert h_res == pytest.approx(want_h, rel=1e-12, abs=1e-12)

    def test_capacity_violation_box_units(self):
        system = load_system("system2")
        vec = DispatchVector(p=[20.0], o=[100.0, 40.0, 90.0],
                             h=[40.0, 20.0, 10.0], t=[75.0])
        # Power unit sits 15 below its floor and the heat unit 15 above its
        # ceiling; both cogen points are interior so only the box terms count.
        assert capacity_violation(vec, system) == pytest.approx(30.0, abs=1e-9)

    def test_capacity_violation_region_distance(self):
        system = load_system("system1")
        vec = DispatchVector(p=[10.0], o=[160.0, 30.0], h=[40.0, 75.0], t=[0.0])
        region = system.cogen_units[1].region
        want = region.distance_outside_many(np.array([[30.0, 75.0]]))[0]
        assert want > 0.0
        assert capacity_violation(vec, system) == pytest.approx(want, rel=1e-12)

    def test_evaluate_bundles_everything(self):
        system = load_system("system2")
        rng = np.random.default_rng(11)
        x = _random_dispatch(oracles.SYS2_BOUNDS, rng)
        vec = _sys2_vec(x)
        ev = evaluate(vec, system)
        assert ev.cost == total_cost(vec, system)
        assert ev.emission == total_emission(vec, system)
        assert ev.loss == transmission_loss(vec, system)
        assert (ev.power_residual, ev.heat_residual) == balance_residuals(vec, system)
        assert ev.capacity_violation == capacity_violation(vec, system)

    def test_evaluate_computes_the_loss_once(self, monkeypatch):
        system = load_system("system3")
        x = _random_dispatch(oracles.SYS3_BOUNDS, np.random.default_rng(12))
        vec = _sys3_vec(x)
        want = evaluate(vec, system)
        calls = []

        def counted(*args):
            calls.append(1)
            return loss_batch(*args)

        monkeypatch.setattr(model, "loss_batch", counted)
        assert evaluate(vec, system) == want
        assert len(calls) == 1


class TestBatchConsistency:
    def test_batch_matches_single(self):
        system = load_system("system3")
        rng = np.random.default_rng(7)
        rows = np.array([_random_dispatch(oracles.SYS3_BOUNDS, rng)
                         for _ in range(40)])
        genes = np.array([_sys3_vec(r).to_genes() for r in rows])
        p, o, h, t = system.split_genes(genes)
        costs = cost_batch(p, o, h, t, system)
        ems = emission_batch(p, o, h, t, system)
        losses = loss_batch(p, o, system)
        viols = capacity_violation_batch(p, o, h, t, system)
        for k in range(len(rows)):
            vec = _sys3_vec(rows[k])
            assert costs[k] == pytest.approx(total_cost(vec, system), rel=1e-14)
            assert ems[k] == pytest.approx(total_emission(vec, system), rel=1e-14)
            assert losses[k] == pytest.approx(transmission_loss(vec, system), rel=1e-14)
            assert viols[k] == pytest.approx(capacity_violation(vec, system), abs=1e-14)


class TestDispatchVector:
    def test_gene_roundtrip(self):
        system = load_system("system2")
        rng = np.random.default_rng(5)
        x = _random_dispatch(oracles.SYS2_BOUNDS, rng)
        vec = _sys2_vec(x)
        back = DispatchVector.from_genes(vec.to_genes(), system)
        assert np.array_equal(back.to_genes(), vec.to_genes())

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DispatchVector(p=[np.nan], o=[], h=[], t=[])

    def test_cogen_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            DispatchVector(p=[1.0], o=[1.0, 2.0], h=[1.0], t=[])

    def test_dimension_check(self):
        system = load_system("system1")
        vec = DispatchVector(p=[0.0, 0.0], o=[160.0, 40.0], h=[40.0, 75.0], t=[0.0])
        with pytest.raises(ValueError, match="do not match"):
            total_cost(vec, system)


class TestUnitValidation:
    def test_power_bounds(self):
        with pytest.raises(ValueError, match="bounds invalid"):
            PowerOnlyUnit(p_min=100.0, p_max=50.0)

    def test_heat_bounds(self):
        with pytest.raises(ValueError, match="bounds invalid"):
            HeatOnlyUnit(h_min=-1.0, h_max=10.0)

    def test_loss_matrix_square(self):
        with pytest.raises(ValueError, match="square"):
            LossModel(b_matrix=np.ones((2, 3)), b0_vector=np.zeros(2), b00=0.0)

    def test_loss_matrix_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            LossModel(b_matrix=np.array([[1.0, 2.0], [3.0, 1.0]]),
                      b0_vector=np.zeros(2), b00=0.0)


class TestLoader:
    def test_bundled_shapes(self):
        s1 = load_system("system1")
        assert (s1.n_power, s1.n_cogen, s1.n_heat) == (1, 2, 1)
        assert (s1.power_demand, s1.heat_demand) == (200.0, 115.0)
        assert s1.n_genes == 6 and not s1.loss_enabled
        s2 = load_system("system2")
        assert (s2.n_power, s2.n_cogen, s2.n_heat) == (1, 3, 1)
        assert (s2.power_demand, s2.heat_demand) == (300.0, 150.0)
        assert s2.n_genes == 8 and not s2.loss_enabled
        s3 = load_system("system3")
        assert (s3.n_power, s3.n_cogen, s3.n_heat) == (4, 2, 1)
        assert (s3.power_demand, s3.heat_demand) == (600.0, 150.0)
        assert s3.n_genes == 9 and s3.loss_enabled

    def test_gene_bounds_layout(self):
        lower, upper = load_system("system1").gene_bounds()
        assert np.allclose(lower, [0.0, 81.0, 40.0, 0.0, 0.0, 0.0])
        assert np.allclose(upper, [150.0, 247.0, 125.8, 180.0, 135.6, 2695.2])

    def test_missing_file(self):
        with pytest.raises(SystemLoadError, match="not found"):
            load_system("/no/such/system.json")

    def test_invalid_json(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        with pytest.raises(SystemLoadError, match="valid JSON"):
            load_system(f)

    def test_missing_demand(self, tmp_path):
        f = tmp_path / "no_demand.json"
        f.write_text('{"power_units": [{"p_min": 0, "p_max": 10}]}')
        with pytest.raises(SystemLoadError, match="demand"):
            load_system(f)

    def test_unknown_field_rejected(self, tmp_path):
        f = tmp_path / "extra.json"
        f.write_text(
            '{"demand": {"power": 10, "heat": 0},'
            ' "power_units": [{"p_min": 0, "p_max": 10, "cost_lin": 2}]}'
        )
        with pytest.raises(SystemLoadError, match="unknown field"):
            load_system(f)

    def test_enabled_loss_needs_all_parts(self, tmp_path):
        f = tmp_path / "loss.json"
        f.write_text(
            '{"demand": {"power": 10, "heat": 0},'
            ' "power_units": [{"p_min": 0, "p_max": 10}],'
            ' "loss": {"enabled": true, "b": [[1]], "b0": [0]}}'
        )
        with pytest.raises(SystemLoadError, match="b00"):
            load_system(f)

    def test_loss_dimension_vs_units(self, tmp_path):
        f = tmp_path / "dim.json"
        f.write_text(
            '{"demand": {"power": 10, "heat": 0},'
            ' "power_units": [{"p_min": 0, "p_max": 10}],'
            ' "loss": {"enabled": true, "b": [[1, 0], [0, 1]],'
            ' "b0": [0, 0], "b00": 0}}'
        )
        with pytest.raises(SystemLoadError, match="electric units"):
            load_system(f)

    def test_bad_region_reported(self, tmp_path):
        f = tmp_path / "region.json"
        f.write_text(
            '{"demand": {"power": 10, "heat": 10},'
            ' "cogen_units": [{"region": [[0, 0], [1, 0]]}]}'
        )
        with pytest.raises(SystemLoadError, match="at least 3"):
            load_system(f)

    @pytest.mark.parametrize("name, path, value, message", [
        ("system2", ("power_units", 0, "cost_linear"), float("nan"),
         r"power_units\[0\]\.cost_linear must be finite"),
        ("system2", ("demand", "power"), float("inf"),
         r"demand\.power must be finite"),
        ("system2", ("heat_units", 0, "h_max"), float("inf"),
         r"heat_units\[0\]\.h_max must be finite"),
        ("system2", ("cogen_units", 1, "cost_cross"), float("-inf"),
         r"cogen_units\[1\]\.cost_cross must be finite"),
        ("system2", ("cogen_units", 0, "region", 1, 0), float("nan"),
         "region vertices must be finite"),
        ("system3", ("loss", "b0", 2), float("nan"), "loss b0 must be finite"),
        ("system3", ("loss", "b00"), float("inf"), "loss b00 must be finite"),
        # finite coefficients whose scaled value overflows
        ("system3", ("loss", "scale_b"), 1e308, "loss b must be finite"),
    ], ids=["cost-nan", "demand-inf", "heat-bound-inf", "cogen-coeff-inf",
            "region-nan", "loss-b0-nan", "loss-b00-inf", "loss-b-overflow"])
    def test_non_finite_numbers_rejected(self, tmp_path, name, path, value,
                                         message):
        data = json.loads(resources.files("chpdispatch.data")
                          .joinpath(f"{name}.json").read_text())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        with pytest.raises(SystemLoadError, match=message):
            load_system(f)
