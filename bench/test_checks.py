"""The benchmark's output checks must pass real outputs and reject broken ones.

    python3 -m pytest -q bench/test_checks.py
"""
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from chpdispatch import (EngineConfig, ExperimentConfig,  # noqa: E402
                         emit_reports, run_experiment)

DATA = BENCH.parent / "src" / "chpdispatch" / "data"


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """Small IDBEA/IBEA experiment on system3 with its report tables."""
    base = tmp_path_factory.mktemp("runs")
    small = EngineConfig(population_size=20, max_evaluations=400)
    cfg = ExperimentConfig(
        experiment_id="small", system="system3", repetitions=3,
        algorithms=(replace(small, algorithm="IDBEA"),
                    replace(small, algorithm="IBEA")))
    run_experiment(cfg, base_dir=base)
    exp_dir = base / "small"
    emit_reports(exp_dir)
    return exp_dir


@pytest.fixture
def spec():
    return checks.SystemSpec(DATA / "system3.json")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write(path, rows):
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _front_copy(experiment, tmp_path):
    src = experiment / "IDBEA" / "IDBEA_seed1.csv"
    dst = tmp_path / src.name
    dst.write_bytes(src.read_bytes())
    return dst


def test_real_outputs_pass(experiment, spec):
    for path in sorted(experiment.glob("*/*_seed*.csv")):
        assert checks.check_front(path, spec) == []
    assert checks.check_reports(experiment) == []


def test_evaluator_matches_program_on_random_dispatches(spec):
    from chpdispatch import DispatchVector, evaluate, load_system

    system = load_system("system3")
    lo, hi = spec.box()
    rng = np.random.default_rng(5)
    for _ in range(200):
        genes = rng.uniform(lo, hi).tolist()
        ev = evaluate(DispatchVector.from_genes(np.array(genes), system),
                      system)
        assert spec.cost(genes) == pytest.approx(ev.cost, rel=1e-12)
        assert spec.emission(genes) == pytest.approx(ev.emission, rel=1e-12)
        assert spec.loss(genes) == pytest.approx(ev.loss, rel=1e-12)


def test_rejects_cost_shifted_by_one(experiment, spec, tmp_path):
    path = _front_copy(experiment, tmp_path)
    rows = _rows(path)
    rows[1][0] = repr(float(rows[1][0]) + 1.0)
    _write(path, rows)
    problems = checks.check_front(path, spec)
    assert any("row 0: cost" in p for p in problems), problems


def test_rejects_dominated_point(experiment, spec, tmp_path):
    path = _front_copy(experiment, tmp_path)
    rows = _rows(path)
    extra = list(rows[1])
    extra[0] = repr(float(extra[0]) + 1.0)
    extra[1] = repr(float(extra[1]) + 1.0)
    _write(path, rows + [extra])
    problems = checks.check_front(path, spec)
    assert any("dominated" in p for p in problems), problems


def test_rejects_row_off_power_balance(experiment, spec, tmp_path):
    path = _front_copy(experiment, tmp_path)
    rows = _rows(path)
    genes = [float(v) for v in rows[1][3:]]
    lo, hi = spec.box()
    genes[0] += 1.0 if genes[0] + 1.0 <= hi[0] else -1.0
    # Objectives follow the moved dispatch, so only the balance is off.
    rows[1] = [repr(spec.cost(genes)), repr(spec.emission(genes)), rows[1][2]]
    rows[1] += [repr(g) for g in genes]
    _write(path, rows)
    problems = [p for p in checks.check_front(path, spec)
                if "dominated" not in p]
    assert problems and all("power balance" in p for p in problems), problems


def test_rejects_p_value_altered_in_last_digit(experiment, tmp_path):
    exp_dir = tmp_path / "exp"
    for f in experiment.rglob("*"):
        if f.is_file():
            dst = exp_dir / f.relative_to(experiment)
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(f.read_bytes())
    rows = _rows(exp_dir / "compare.csv")
    col = rows[0].index("p_value")
    text = rows[1][col]
    rows[1][col] = text[:-1] + str((int(text[-1]) + 1) % 10)
    assert float(rows[1][col]) != float(text)
    _write(exp_dir / "compare.csv", rows)
    problems = checks.check_reports(exp_dir)
    assert any(p.startswith("compare.csv") for p in problems), problems


def test_signflip_p_value_small_cases():
    # Three positive differences give W- = 0; of the eight sign
    # assignments only the all-negative one has W+ <= 0, so p = 2 / 8.
    assert checks.signflip_p_value([1.0, 2.0, 3.0]) == 0.25
    assert checks.signflip_p_value([0.0, 0.0]) == 1.0
    assert checks.signflip_p_value([1.0, -1.0]) == 1.0
