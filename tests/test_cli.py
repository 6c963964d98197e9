"""Experiment harness tests: config loading, compromise selection, batch
execution with persistence, report emission, and the CLI entry point."""
import csv
import json
import shutil

import numpy as np
import pytest

from chpdispatch import (ConstraintConfig, EngineConfig, ExperimentConfig,
                         NormalizationBounds, SystemLoadError, eaf_surfaces,
                         emit_reports, hv_metric, load_experiment, load_system,
                         run_experiment, select_compromise, spread_delta)
from chpdispatch import cli
from chpdispatch.cli import _read_front_csv, main
from chpdispatch.model import cost_batch, emission_batch, loss_batch

TINY = dict(population_size=8, max_evaluations=64)


def _exp_dict(**over):
    data = {
        "experiment_id": "exp",
        "system": "system2",
        "algorithms": [dict(algorithm="IDBEA", **TINY)],
    }
    data.update(over)
    return data


def _write_exp(tmp_path, name="exp.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(_exp_dict(**over)))
    return path


@pytest.fixture(scope="session")
def paired_experiment(tmp_path_factory):
    """Two algorithms x three seeds on the small cogeneration system."""
    root = tmp_path_factory.mktemp("paired")
    cfg = ExperimentConfig(
        experiment_id="paired",
        system="system2",
        algorithms=(EngineConfig(algorithm="IDBEA", **TINY),
                    EngineConfig(algorithm="IBEA", **TINY)),
        repetitions=3,
        seed_base=5,
    )
    records = run_experiment(cfg, base_dir=root)
    return cfg, root / "paired", records


@pytest.fixture(scope="session")
def paired_reports(paired_experiment):
    _, exp_dir, _ = paired_experiment
    return exp_dir, emit_reports(exp_dir)


@pytest.fixture(scope="session")
def chped_experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("chped")
    cfg = ExperimentConfig(
        experiment_id="single",
        system="system1",
        algorithms=(EngineConfig(algorithm="IDBEA", **TINY),),
        mode="chped",
    )
    records = run_experiment(cfg, base_dir=root)
    return root / "single", records


@pytest.fixture(scope="session")
def sys3_reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("s3")
    cfg = ExperimentConfig(
        experiment_id="s3",
        system="system3",
        algorithms=(EngineConfig(algorithm="IDBEA", **TINY),),
        repetitions=2,
    )
    run_experiment(cfg, base_dir=root)
    exp_dir = root / "s3"
    return exp_dir, emit_reports(exp_dir)


class TestLoadExperiment:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemLoadError, match="experiment file not found"):
            load_experiment(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemLoadError, match="not valid JSON"):
            load_experiment(path)

    def test_unknown_field(self, tmp_path):
        path = _write_exp(tmp_path, bogus=1)
        with pytest.raises(SystemLoadError,
                           match=r"unknown field\(s\): \['bogus'\]"):
            load_experiment(path)

    @pytest.mark.parametrize("key", ["experiment_id", "system", "algorithms"])
    def test_missing_required_key(self, tmp_path, key):
        data = _exp_dict()
        del data[key]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemLoadError, match=f"missing '{key}'"):
            load_experiment(path)

    def test_bad_constraints_section(self, tmp_path):
        path = _write_exp(tmp_path, constraints={"bogus": 1})
        with pytest.raises(SystemLoadError, match="constraints section:"):
            load_experiment(path)

    def test_penalty_weight_rejected(self, tmp_path):
        # the weight was never read by any solver; an experiment file that
        # still sets it is refused rather than silently ignored
        path = _write_exp(tmp_path, constraints={"penalty_weight": 1e4})
        with pytest.raises(SystemLoadError,
                           match="constraints section:.*penalty_weight"):
            load_experiment(path)

    def test_bad_algorithm_entry_names_index(self, tmp_path):
        algs = [dict(algorithm="IDBEA", **TINY),
                dict(algorithm="IBEA", population_size=7)]
        path = _write_exp(tmp_path, algorithms=algs)
        with pytest.raises(SystemLoadError, match=r"algorithms\[1\]:"):
            load_experiment(path)

    def test_bad_mode(self, tmp_path):
        path = _write_exp(tmp_path, mode="minimize")
        with pytest.raises(SystemLoadError,
                           match="mode must be 'chped' or 'chpeed'"):
            load_experiment(path)

    def test_defaults_and_parsed_fields(self, tmp_path):
        cfg = load_experiment(_write_exp(tmp_path))
        assert cfg.experiment_id == "exp"
        assert cfg.system == "system2"
        assert cfg.mode == "chpeed"
        assert cfg.repetitions == 1
        assert cfg.seed_base == 1
        assert cfg.output_dir == "runs"
        assert cfg.constraints == ConstraintConfig()
        assert len(cfg.algorithms) == 1
        assert isinstance(cfg.algorithms[0], EngineConfig)
        assert cfg.algorithms[0].population_size == 8

    def test_config_rejects_path_like_id(self):
        with pytest.raises(ValueError, match="plain directory name"):
            ExperimentConfig(experiment_id="a/b", system="system2",
                             algorithms=(EngineConfig(**TINY),))

    def test_config_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="repetitions must be at least 1"):
            ExperimentConfig(experiment_id="e", system="system2",
                             algorithms=(EngineConfig(**TINY),), repetitions=0)

    def test_config_rejects_empty_algorithms(self):
        with pytest.raises(ValueError, match="at least one algorithm"):
            ExperimentConfig(experiment_id="e", system="system2",
                             algorithms=())

    def test_config_rejects_duplicate_tags(self):
        algs = (EngineConfig(algorithm="IBEA", **TINY),
                EngineConfig(algorithm="IBEA", population_size=4,
                             max_evaluations=8))
        with pytest.raises(ValueError, match="unique"):
            ExperimentConfig(experiment_id="e", system="system2",
                             algorithms=algs)


def _ref_compromise(objs):
    """Reference rule: smallest worst-case normalized objective, ties by
    lexicographically smallest objective vector."""
    lo = objs.min(axis=0)
    hi = objs.max(axis=0)
    best = None
    for row in objs:
        worst = 0.0
        for j in range(objs.shape[1]):
            span = hi[j] - lo[j]
            if span > 0:
                worst = max(worst, (row[j] - lo[j]) / span)
        key = (worst,) + tuple(row)
        if best is None or key < best:
            best = key
    return best[1:]


class TestSelectCompromise:
    def test_single_point_front(self):
        assert select_compromise([(3.0, 7.0)]) == (3.0, 7.0)

    def test_symmetric_three_point_front(self):
        pts = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        assert select_compromise(pts) == (0.5, 0.5)

    def test_tie_breaks_toward_lowest_cost(self):
        assert select_compromise([(1.0, 0.0), (0.0, 1.0)]) == (0.0, 1.0)

    def test_degenerate_objective_column(self):
        pts = [(3.0, 5.0), (1.0, 5.0), (2.0, 5.0)]
        assert select_compromise(pts) == (1.0, 5.0)

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError, match="non-empty front"):
            select_compromise(np.empty((0, 2)))

    def test_matches_reference_rule(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            if rng.random() < 0.5:
                objs = rng.random((n, 2)) * [1000.0, 4.0]
            else:
                objs = rng.integers(0, 4, (n, 2)).astype(float)
            got = select_compromise(objs)
            assert got == tuple(_ref_compromise(objs))
            assert any(np.array_equal(got, row) for row in objs)


class TestRunExperiment:
    def test_single_repetition_yields_one_record(self, tmp_path):
        cfg = ExperimentConfig(experiment_id="one", system="system2",
                               algorithms=(EngineConfig(**TINY),))
        records = run_experiment(cfg, base_dir=tmp_path)
        assert len(records) == 1
        assert records[0].seed == 1

    def test_record_grid(self, paired_experiment):
        _, _, records = paired_experiment
        grid = [(r.algorithm, r.seed) for r in records]
        assert grid == [("IDBEA", 5), ("IDBEA", 6), ("IDBEA", 7),
                        ("IBEA", 5), ("IBEA", 6), ("IBEA", 7)]
        assert all(r.experiment_id == "paired" for r in records)
        assert all(r.wall_time > 0 for r in records)

    def test_record_points_come_from_front(self, paired_experiment):
        _, _, records = paired_experiment
        for rec in records:
            objs = rec.front.objectives
            rows = {tuple(row) for row in objs}
            assert rec.best_cost_point == tuple(objs[np.argmin(objs[:, 0])])
            assert rec.best_emission_point == tuple(objs[np.argmin(objs[:, 1])])
            assert rec.compromise_point in rows

    def test_output_layout(self, paired_experiment):
        _, exp_dir, _ = paired_experiment
        for alg in ("IDBEA", "IBEA"):
            for seed in (5, 6, 7):
                assert (exp_dir / alg / f"{alg}_seed{seed}.csv").exists()
        assert (exp_dir / "manifest.json").exists()

    def test_manifest_contents(self, paired_experiment):
        cfg, exp_dir, records = paired_experiment
        manifest = json.loads((exp_dir / "manifest.json").read_text())
        assert manifest["experiment_id"] == "paired"
        assert manifest["system"] == "system2"
        assert manifest["system_id"] == "system2"
        assert manifest["mode"] == "chpeed"
        assert manifest["seed_base"] == 5
        assert len(manifest["algorithms"]) == 2
        runs = manifest["runs"]
        assert len(runs) == 6
        for entry, rec in zip(runs, records):
            assert entry["algorithm"] == rec.algorithm
            assert entry["seed"] == rec.seed
            assert entry["front_size"] == len(rec.front)
            assert entry["n_evaluations"] == 64
            assert entry["file"] == f"{rec.algorithm}/{rec.algorithm}_seed{rec.seed}.csv"

    def test_csv_roundtrip_is_exact(self, paired_experiment):
        _, exp_dir, records = paired_experiment
        for rec in records:
            path = exp_dir / rec.algorithm / f"{rec.algorithm}_seed{rec.seed}.csv"
            back = _read_front_csv(path, rec.algorithm, rec.seed, "system2")
            assert back.seed == rec.seed
            assert back.algorithm == rec.algorithm
            stored = np.hstack([rec.front.objectives,
                                rec.front.violations[:, None],
                                rec.front.genes])
            loaded = np.hstack([back.objectives, back.violations[:, None],
                                back.genes])
            assert sorted(map(tuple, stored)) == sorted(map(tuple, loaded))

    def test_rows_sorted_by_cost(self, paired_experiment):
        _, exp_dir, records = paired_experiment
        rec = records[0]
        path = exp_dir / rec.algorithm / f"{rec.algorithm}_seed{rec.seed}.csv"
        back = _read_front_csv(path, rec.algorithm, rec.seed, "system2")
        costs = back.objectives[:, 0]
        assert np.all(np.diff(costs) >= 0)

    def test_persisted_fronts_reevaluate_to_stored_objectives(
            self, paired_experiment):
        _, exp_dir, records = paired_experiment
        system = load_system("system2")
        for rec in records:
            path = exp_dir / rec.algorithm / f"{rec.algorithm}_seed{rec.seed}.csv"
            front = _read_front_csv(path, rec.algorithm, rec.seed, "system2")
            p, o, h, t = system.split_genes(front.genes)
            assert np.allclose(cost_batch(p, o, h, t, system),
                               front.objectives[:, 0], rtol=1e-9, atol=1e-9)
            assert np.allclose(emission_batch(p, o, h, t, system),
                               front.objectives[:, 1], rtol=1e-9, atol=1e-12)

    def test_rerun_reproduces_front_files_byte_for_byte(
            self, paired_experiment, tmp_path):
        cfg, exp_dir, _ = paired_experiment
        again = run_experiment(cfg, base_dir=tmp_path)
        assert len(again) == 6
        for alg in ("IDBEA", "IBEA"):
            for seed in (5, 6, 7):
                rel = f"{alg}/{alg}_seed{seed}.csv"
                assert (tmp_path / "paired" / rel).read_bytes() == \
                    (exp_dir / rel).read_bytes()

    def test_env_var_overrides_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHPDISPATCH_OUTPUT_ROOT", str(tmp_path / "routed"))
        cfg = ExperimentConfig(experiment_id="env", system="system2",
                               algorithms=(EngineConfig(**TINY),),
                               output_dir=str(tmp_path / "ignored"))
        run_experiment(cfg)
        assert (tmp_path / "routed" / "env" / "IDBEA" / "IDBEA_seed1.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_progress_callback(self, tmp_path):
        cfg = ExperimentConfig(experiment_id="prog", system="system2",
                               algorithms=(EngineConfig(**TINY),),
                               repetitions=2)
        messages = []
        run_experiment(cfg, base_dir=tmp_path, progress=messages.append)
        assert len(messages) == 2
        assert "IDBEA seed 1" in messages[0]

    def test_chped_records(self, chped_experiment):
        _, records = chped_experiment
        rec = records[0]
        assert rec.front.objectives.shape[1] == 1
        assert rec.best_emission_point is None
        assert rec.compromise_point == rec.best_cost_point

    def test_chped_csv_has_no_emission_column(self, chped_experiment):
        exp_dir, _ = chped_experiment
        header = (exp_dir / "IDBEA" / "IDBEA_seed1.csv").read_text() \
            .splitlines()[0]
        assert header == "cost,violation,p1,o1,o2,h1,h2,t1"


class TestEmitReports:
    def test_written_inventory(self, paired_reports):
        exp_dir, written = paired_reports
        names = {p.name for p in written}
        expected = {"report.csv", "summary.csv", "metrics.csv", "compare.csv"}
        expected |= {f"eaf_{alg}_{lv}.csv" for alg in ("IDBEA", "IBEA")
                     for lv in (25, 50, 75)}
        assert names == expected
        assert all(p.parent == exp_dir and p.exists() for p in written)

    def test_report_table_matches_fronts(self, paired_experiment,
                                         paired_reports):
        _, _, records = paired_experiment
        exp_dir, _ = paired_reports
        with open(exp_dir / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * len(records)
        by_run = {(r.algorithm, r.seed): r for r in records}
        for row in rows:
            rec = by_run[(row["algorithm"], int(row["seed"]))]
            objs = rec.front.objectives
            idx = {"best_cost": int(np.argmin(objs[:, 0])),
                   "best_emission": int(np.argmin(objs[:, 1]))}.get(
                       row["solution"])
            if idx is None:
                assert (float(row["cost"]), float(row["emission"])) == \
                    rec.compromise_point
                continue
            assert float(row["cost"]) == objs[idx, 0]
            assert float(row["emission"]) == objs[idx, 1]
            assert float(row["violation"]) == rec.front.violations[idx]
            assert float(row["ploss"]) == 0.0
            genes = [float(row[c]) for c in
                     ("p1", "o1", "o2", "o3", "h1", "h2", "h3", "t1")]
            assert np.array_equal(genes, rec.front.genes[idx])
            assert float(row["wall_time_s"]) == rec.wall_time

    def test_summary_statistics(self, paired_experiment, paired_reports):
        _, _, records = paired_experiment
        exp_dir, _ = paired_reports
        with open(exp_dir / "summary.csv", newline="") as fh:
            rows = {r["algorithm"]: r for r in csv.DictReader(fh)}
        assert set(rows) == {"IDBEA", "IBEA"}
        for alg, row in rows.items():
            mins = [r.front.objectives[:, 0].min() for r in records
                    if r.algorithm == alg]
            ems = [r.front.objectives[:, 1].min() for r in records
                   if r.algorithm == alg]
            assert int(row["runs"]) == 3
            assert float(row["best_cost"]) == min(mins)
            assert float(row["worst_cost"]) == max(mins)
            assert np.isclose(float(row["mean_cost"]), np.mean(mins),
                              rtol=1e-12)
            assert np.isclose(float(row["std_cost"]),
                              np.std(mins, ddof=1), rtol=1e-12)
            assert float(row["best_emission"]) == min(ems)

    def test_metrics_match_recomputation(self, paired_reports):
        exp_dir, _ = paired_reports
        fronts = {}
        for alg in ("IDBEA", "IBEA"):
            for seed in (5, 6, 7):
                path = exp_dir / alg / f"{alg}_seed{seed}.csv"
                fronts[alg, seed] = _read_front_csv(path, alg, seed, "system2")
        bounds = NormalizationBounds.from_fronts(list(fronts.values()))
        with open(exp_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row in rows:
            front = fronts[row["algorithm"], int(row["seed"])]
            assert row["system"] == "system2"
            assert float(row["hv"]) == hv_metric(front, bounds)
            assert float(row["spread"]) == spread_delta(front, bounds)

    def test_compare_table(self, paired_reports):
        exp_dir, _ = paired_reports
        with open(exp_dir / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["algorithm_a"], r["algorithm_b"], r["metric"]) for r in rows] \
            == [("IBEA", "IDBEA", "hv"), ("IBEA", "IDBEA", "spread")]
        for row in rows:
            assert int(row["n_pairs"]) == 3
            assert 0.0 < float(row["p_value"]) <= 1.0
            assert row["reject"] in ("True", "False")

    def test_eaf_files_match_recomputation(self, paired_reports):
        exp_dir, _ = paired_reports
        fronts = [_read_front_csv(exp_dir / "IDBEA" / f"IDBEA_seed{s}.csv",
                                  "IDBEA", s, "system2") for s in (5, 6, 7)]
        surfaces = eaf_surfaces(fronts, (25.0, 50.0, 75.0))
        for level in (25.0, 50.0, 75.0):
            got = np.loadtxt(exp_dir / f"eaf_IDBEA_{int(level)}.csv",
                             delimiter=",", skiprows=1, ndmin=2)
            assert np.array_equal(got, surfaces[level])

    def test_reemission_is_byte_identical(self, paired_experiment):
        _, exp_dir, _ = paired_experiment
        first = emit_reports(exp_dir)
        before = {p: p.read_bytes() for p in first}
        second = emit_reports(exp_dir)
        assert set(second) == set(first)
        for path, blob in before.items():
            assert path.read_bytes() == blob

    def test_chped_report_has_one_row_and_no_metrics(self, chped_experiment):
        exp_dir, _ = chped_experiment
        written = emit_reports(exp_dir)
        assert {p.name for p in written} == {"report.csv", "summary.csv"}
        with open(exp_dir / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["solution"] == "best_cost"
        assert rows[0]["emission"] == ""

    def test_ploss_column_matches_loss_recomputation(self, sys3_reports):
        exp_dir, _ = sys3_reports
        system = load_system("system3")
        with open(exp_dir / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        gene_cols = ("p1", "p2", "p3", "p4", "o1", "o2", "h1", "h2", "t1")
        losses = {}
        for seed in (1, 2):
            front = _read_front_csv(exp_dir / "IDBEA" / f"IDBEA_seed{seed}.csv",
                                    "IDBEA", seed, "system3")
            p, o, _, _ = system.split_genes(front.genes)
            losses[seed] = (front.genes, loss_batch(p, o, system))
        for row in rows:
            genes = np.array([float(row[c]) for c in gene_cols])
            front_genes, ploss = losses[int(row["seed"])]
            idx = np.flatnonzero((front_genes == genes).all(axis=1))
            assert idx.size >= 1
            assert float(row["ploss"]) == ploss[idx[0]]
            assert float(row["ploss"]) > 0.0

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SystemLoadError, match="manifest not found"):
            emit_reports(tmp_path)

    def test_each_front_read_once(self, paired_reports, monkeypatch):
        exp_dir, _ = paired_reports
        reads = []

        def counted(path, *args):
            reads.append(path)
            return _read_front_csv(path, *args)

        monkeypatch.setattr(cli, "_read_front_csv", counted)
        emit_reports(exp_dir)
        fronts = sorted(exp_dir.glob("*/*_seed*.csv"))
        assert len(fronts) == 6
        assert sorted(reads) == fronts


class TestMain:
    def test_run_subcommand(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHPDISPATCH_OUTPUT_ROOT", str(tmp_path / "out"))
        exp = _write_exp(tmp_path, experiment_id="cli")
        assert main(["run", str(exp)]) == 0
        out = capsys.readouterr().out
        assert "1 run(s) written" in out
        assert (tmp_path / "out" / "cli" / "IDBEA" / "IDBEA_seed1.csv").exists()

    def test_run_reports_load_errors(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "error: experiment file not found" in capsys.readouterr().err

    def test_metrics_subcommand(self, paired_reports, capsys):
        exp_dir, _ = paired_reports
        assert main(["metrics", str(exp_dir)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "system,algorithm,seed,hv,spread"
        assert len(out) == 7
        assert (exp_dir / "metrics.csv").exists()

    def test_metrics_with_bounds_file(self, paired_reports, tmp_path, capsys):
        exp_dir, _ = paired_reports
        work = tmp_path / "copy"
        shutil.copytree(exp_dir, work)
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps(
            {"lower": [13000.0, 1.0], "upper": [20000.0, 14.0]}))
        assert main(["metrics", str(work), "--bounds", str(bounds)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7

    def test_metrics_bounds_file_errors(self, paired_reports, tmp_path,
                                        capsys):
        exp_dir, _ = paired_reports
        assert main(["metrics", str(exp_dir), "--bounds",
                     str(tmp_path / "nope.json")]) == 2
        assert "bounds file not found" in capsys.readouterr().err
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"lower": [0, 0]}))
        assert main(["metrics", str(exp_dir), "--bounds", str(partial)]) == 2
        assert "must provide 'lower' and 'upper'" in capsys.readouterr().err

    def test_metrics_rejects_single_objective_runs(self, chped_experiment,
                                                   tmp_path, capsys):
        exp_dir, _ = chped_experiment
        assert main(["metrics", str(exp_dir)]) == 2
        assert "min < max" in capsys.readouterr().err
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps(
            {"lower": [9000.0, 0.0], "upper": [10000.0, 1.0]}))
        assert main(["metrics", str(exp_dir), "--bounds", str(bounds)]) == 2
        assert "bi-objective" in capsys.readouterr().err

    def test_eaf_subcommand(self, paired_reports, capsys):
        exp_dir, _ = paired_reports
        assert main(["eaf", str(exp_dir), "--levels", "50"]) == 0
        out = capsys.readouterr().out
        assert "eaf_IDBEA_50.csv" in out and "eaf_IBEA_50.csv" in out

    def test_eaf_subcommand_writes_what_report_writes(self, paired_reports,
                                                      tmp_path, capsys):
        exp_dir, _ = paired_reports
        work = tmp_path / "copy"
        shutil.copytree(exp_dir, work)
        from_report = {p.name: p.read_bytes() for p in emit_reports(work)
                       if p.name.startswith("eaf_")}
        for name in from_report:
            (work / name).unlink()
        assert main(["eaf", str(work), "--levels", "25,50,75"]) == 0
        capsys.readouterr()
        from_eaf = {p.name: p.read_bytes() for p in work.glob("eaf_*.csv")}
        assert len(from_report) == 6
        assert from_eaf == from_report

    def test_eaf_rejects_empty_levels(self, paired_reports, capsys):
        exp_dir, _ = paired_reports
        assert main(["eaf", str(exp_dir), "--levels", " , "]) == 2
        assert "no attainment levels" in capsys.readouterr().err

    def test_eaf_rejects_out_of_range_level(self, paired_reports, capsys):
        exp_dir, _ = paired_reports
        assert main(["eaf", str(exp_dir), "--levels", "0"]) == 2
        assert "outside (0, 100]" in capsys.readouterr().err

    def test_eaf_needs_two_runs_per_algorithm(self, paired_reports, tmp_path,
                                              capsys):
        exp_dir, _ = paired_reports
        lone = tmp_path / "lone"
        (lone / "IDBEA").mkdir(parents=True)
        shutil.copy(exp_dir / "manifest.json", lone / "manifest.json")
        shutil.copy(exp_dir / "IDBEA" / "IDBEA_seed5.csv", lone / "IDBEA")
        assert main(["eaf", str(lone)]) == 2
        err = capsys.readouterr().err
        assert "skipping IDBEA" in err
        assert "no algorithm had enough runs" in err

    def test_compare_subcommand(self, paired_reports, capsys):
        exp_dir, _ = paired_reports
        assert main(["compare", str(exp_dir / "IDBEA"),
                     str(exp_dir / "IBEA")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("algorithm_a,algorithm_b")
        assert len(lines) == 3
        assert lines[1].startswith("IBEA,IDBEA,hv,3,")
        assert lines[2].startswith("IBEA,IDBEA,spread,3,")

    def test_compare_directory_with_itself(self, paired_reports, capsys):
        exp_dir, _ = paired_reports
        path = str(exp_dir / "IDBEA")
        assert main(["compare", path, path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("a:IDBEA,b:IDBEA,hv,3,")
        assert lines[1].endswith(",1,False")

    def test_compare_unknown_test(self, paired_reports, capsys):
        exp_dir, _ = paired_reports
        assert main(["compare", str(exp_dir / "IDBEA"), str(exp_dir / "IBEA"),
                     "--test", "ttest"]) == 2
        assert "unknown test: ttest" in capsys.readouterr().err

    def test_compare_needs_shared_seeds(self, paired_reports, tmp_path,
                                        capsys):
        exp_dir, _ = paired_reports
        lone = tmp_path / "lone"
        lone.mkdir()
        shutil.copy(exp_dir / "IDBEA" / "IDBEA_seed5.csv", lone)
        assert main(["compare", str(lone), str(exp_dir / "IBEA")]) == 2
        assert "fewer than 2 seeds" in capsys.readouterr().err

    def test_compare_empty_directory(self, paired_reports, tmp_path, capsys):
        exp_dir, _ = paired_reports
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["compare", str(empty), str(exp_dir / "IBEA")]) == 2
        assert "no run files found" in capsys.readouterr().err

    def test_report_subcommand(self, paired_reports, capsys):
        exp_dir, _ = paired_reports
        assert main(["report", str(exp_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote ") == 10

    def test_report_missing_manifest(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "manifest not found" in capsys.readouterr().err

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
