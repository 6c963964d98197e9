"""Experiment harness tests: config loading, compromise selection, batch
execution with persistence, front and EAF files, report emission, and the
CLI entry point."""
import csv
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chpdispatch import (EngineConfig, ExperimentConfig, FrontArchive,
                         NormalizationBounds, SystemLoadError, eaf_surfaces,
                         emit_reports, hv_metric, load_experiment,
                         load_system, run, run_experiment, spread_delta,
                         wilcoxon_signed_rank)
from chpdispatch import cli, constraints
from chpdispatch.cli import _read_front_csv, _table, _write_front_csv, main
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
    manifest = run_experiment(cfg, base_dir=root)
    return cfg, root / "paired", manifest


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
    manifest = run_experiment(cfg, base_dir=root)
    return root / "single", manifest


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

    @pytest.mark.parametrize("text", [
        "5", '["experiment_id", "system", "algorithms"]'])
    def test_non_object_rejected(self, tmp_path, text):
        path = tmp_path / "exp.json"
        path.write_text(text)
        with pytest.raises(SystemLoadError, match="must hold a JSON object"):
            load_experiment(path)

    @pytest.mark.parametrize("algorithms", [5, [5], ["IDBEA"]])
    def test_algorithms_must_be_objects(self, tmp_path, algorithms):
        path = _write_exp(tmp_path, algorithms=algorithms)
        with pytest.raises(SystemLoadError, match="list of JSON objects"):
            load_experiment(path)

    @pytest.mark.parametrize("field", [
        "bogus", "crossover_prob", "mutation_prob", "sbx_eta", "pm_eta",
        "kappa", "archive_keep_fraction"])
    def test_unknown_entry_field(self, tmp_path, field):
        algs = [dict(algorithm="IDBEA", **TINY),
                dict(algorithm="IBEA", **TINY, **{field: 0.5})]
        path = _write_exp(tmp_path, algorithms=algs)
        with pytest.raises(SystemLoadError,
                           match=rf"algorithms\[1\] has unknown field\(s\): "
                                 rf"\['{field}'\]"):
            load_experiment(path)

    def test_entry_seed_rejected(self, tmp_path):
        # seeds come from seed_base; an entry's own seed was never run
        algs = [dict(algorithm="IDBEA", rng_seed=99, **TINY)]
        path = _write_exp(tmp_path, algorithms=algs)
        with pytest.raises(SystemLoadError,
                           match=r"algorithms\[0\] sets 'rng_seed'.*seed_base"):
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
        # repair has no settings, so a file that still carries the section
        # is refused rather than silently ignored
        path = _write_exp(tmp_path, constraints={})
        with pytest.raises(SystemLoadError,
                           match=r"unknown field\(s\): \['constraints'\]"):
            load_experiment(path)

    def test_penalty_weight_rejected(self, tmp_path):
        # the weight was never read by any solver; an experiment file that
        # still sets it is refused rather than silently ignored
        path = _write_exp(tmp_path, constraints={"penalty_weight": 1e4})
        with pytest.raises(SystemLoadError,
                           match=r"unknown field\(s\): \['constraints'\]"):
            load_experiment(path)

    def test_bad_algorithm_entry_names_index(self, tmp_path):
        algs = [dict(algorithm="IDBEA", **TINY),
                dict(algorithm="IBEA", population_size=7)]
        path = _write_exp(tmp_path, algorithms=algs)
        with pytest.raises(SystemLoadError, match=r"algorithms\[1\]:"):
            load_experiment(path)

    def test_chped_refuses_idbea_with_ibea(self, tmp_path):
        # in chped mode the two select identically: listing both would run
        # one solver twice
        three = [dict(algorithm=a, **TINY) for a in ("IDBEA", "NSGA2", "IBEA")]
        path = _write_exp(tmp_path, mode="chped", algorithms=three)
        with pytest.raises(SystemLoadError, match="in chped mode the two "
                           "select identically"):
            load_experiment(path)
        for algs in (three[:2], three[1:]):
            path = _write_exp(tmp_path, mode="chped", algorithms=algs)
            assert load_experiment(path).mode == "chped"
        path = _write_exp(tmp_path, algorithms=three)
        assert len(load_experiment(path).algorithms) == 3

    def test_bad_mode(self, tmp_path):
        path = _write_exp(tmp_path, mode="minimize")
        with pytest.raises(SystemLoadError,
                           match="mode must be 'chped' or 'chpeed'"):
            load_experiment(path)

    @pytest.mark.parametrize("field", [
        "experiment_id", "system", "mode", "output_dir"])
    @pytest.mark.parametrize("value", [5, None, ["exp"]])
    def test_names_must_be_strings(self, tmp_path, field, value):
        path = _write_exp(tmp_path, **{field: value})
        with pytest.raises(SystemLoadError,
                           match=f"{field} must be a string, not "):
            load_experiment(path)

    @pytest.mark.parametrize("field", ["repetitions", "seed_base"])
    @pytest.mark.parametrize("value", [2.7, True, "3"])
    def test_counts_must_be_integers(self, tmp_path, field, value):
        # int(...) would run 2.7 as 2 and true as 1
        path = _write_exp(tmp_path, **{field: value})
        with pytest.raises(SystemLoadError,
                           match=f"{field} must be an integer, not "):
            load_experiment(path)

    @pytest.mark.parametrize("field", ["population_size", "max_evaluations"])
    @pytest.mark.parametrize("value", [20.0, 40.5, True, "20"])
    def test_entry_counts_must_be_integers(self, tmp_path, field, value):
        # if accepted, 20.0 would fail in the worker and 40.5 run 60 evaluations
        entry = {"algorithm": "IDBEA", "population_size": 20,
                 "max_evaluations": 400, field: value}
        path = _write_exp(tmp_path, algorithms=[entry])
        with pytest.raises(SystemLoadError, match=rf"algorithms\[0\]: "
                           rf"{field} must be an integer, not "):
            load_experiment(path)

    @pytest.mark.parametrize("field", [
        "population_size", "max_evaluations", "rng_seed"])
    @pytest.mark.parametrize("value", [20.0, False, "20", None])
    def test_engine_config_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} must be an integer, not "):
            EngineConfig(**{"population_size": 20, "max_evaluations": 400,
                            field: value})

    def test_defaults_and_parsed_fields(self, tmp_path):
        cfg = load_experiment(_write_exp(tmp_path))
        assert cfg.experiment_id == "exp"
        assert cfg.system == "system2"
        assert cfg.mode == "chpeed"
        assert cfg.repetitions == 1
        assert cfg.seed_base == 1
        assert cfg.output_dir == "runs"
        assert len(cfg.algorithms) == 1
        assert isinstance(cfg.algorithms[0], EngineConfig)
        assert cfg.algorithms[0].population_size == 8

    def test_config_rejects_path_like_id(self):
        for experiment_id in ("a/b", "", ".", ".."):
            with pytest.raises(ValueError, match="plain directory name"):
                ExperimentConfig(experiment_id=experiment_id, system="system2",
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


def select_compromise(objs) -> tuple:
    """The report's compromise row of a front's objectives."""
    objs = np.atleast_2d(np.asarray(objs, float))
    return tuple(objs[cli._compromise_index(objs)])


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
        with pytest.raises(ValueError):
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
        manifest = run_experiment(cfg, base_dir=tmp_path)
        assert [(e["algorithm"], e["seed"]) for e in manifest["runs"]] == \
            [("IDBEA", 1)]

    def test_record_grid(self, paired_experiment):
        _, _, manifest = paired_experiment
        grid = [(e["algorithm"], e["seed"]) for e in manifest["runs"]]
        assert grid == [("IDBEA", 5), ("IDBEA", 6), ("IDBEA", 7),
                        ("IBEA", 5), ("IBEA", 6), ("IBEA", 7)]
        assert manifest["experiment_id"] == "paired"
        assert all(e["wall_time"] > 0 for e in manifest["runs"])

    def test_output_layout(self, paired_experiment):
        _, exp_dir, _ = paired_experiment
        for alg in ("IDBEA", "IBEA"):
            for seed in (5, 6, 7):
                assert (exp_dir / alg / f"{alg}_seed{seed}.csv").exists()
        assert (exp_dir / "manifest.json").exists()

    def test_manifest_contents(self, paired_experiment):
        cfg, exp_dir, returned = paired_experiment
        manifest = json.loads((exp_dir / "manifest.json").read_text())
        assert manifest == returned
        _, fronts, _ = cli._load_experiment(exp_dir)
        assert manifest["experiment_id"] == "paired"
        assert manifest["system"] == "system2"
        assert manifest["system_id"] == "system2"
        assert manifest["mode"] == "chpeed"
        assert manifest["seed_base"] == 5
        assert manifest["algorithms"] == [
            dict(algorithm=alg, **TINY) for alg in ("IDBEA", "IBEA")]
        runs = manifest["runs"]
        assert len(runs) == 6
        for entry in runs:
            alg, seed = entry["algorithm"], entry["seed"]
            assert entry["front_size"] == len(fronts[alg][seed])
            assert entry["n_evaluations"] == 64
            assert entry["file"] == f"{alg}/{alg}_seed{seed}.csv"

    def test_csv_roundtrip_is_exact(self, paired_experiment):
        # the file holds the rows of the engine's run of the same seed
        cfg, exp_dir, manifest = paired_experiment
        system = load_system("system2")
        ecfgs = {a.algorithm: a for a in cfg.algorithms}
        for entry in manifest["runs"]:
            front = run(system, replace(ecfgs[entry["algorithm"]],
                                        rng_seed=entry["seed"]), cfg.mode)
            back = _read_front_csv(exp_dir / entry["file"])
            stored = np.hstack([front.objectives, front.violations[:, None],
                                front.genes])
            loaded = np.hstack([back.objectives, back.violations[:, None],
                                back.genes])
            assert sorted(map(tuple, stored)) == sorted(map(tuple, loaded))

    def test_rows_sorted_by_cost(self, paired_experiment):
        _, exp_dir, manifest = paired_experiment
        back = _read_front_csv(exp_dir / manifest["runs"][0]["file"])
        costs = back.objectives[:, 0]
        assert np.all(np.diff(costs) >= 0)

    def test_persisted_fronts_reevaluate_to_stored_objectives(
            self, paired_experiment):
        _, exp_dir, manifest = paired_experiment
        system = load_system("system2")
        for entry in manifest["runs"]:
            front = _read_front_csv(exp_dir / entry["file"])
            p, o, h, t = system.split_genes(front.genes)
            assert np.allclose(cost_batch(p, o, h, t, system),
                               front.objectives[:, 0], rtol=1e-9, atol=1e-9)
            assert np.allclose(emission_batch(p, o, h, t, system),
                               front.objectives[:, 1], rtol=1e-9, atol=1e-12)

    def test_rerun_reproduces_front_files_byte_for_byte(
            self, paired_experiment, tmp_path):
        cfg, exp_dir, _ = paired_experiment
        again = run_experiment(cfg, base_dir=tmp_path)
        assert len(again["runs"]) == 6
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
        manifest = run_experiment(cfg, base_dir=tmp_path,
                                  progress=messages.append)
        _, fronts, _ = cli._load_experiment(tmp_path / "prog")
        assert messages == [
            f"IDBEA seed {e['seed']}: {e['front_size']} front points, "
            f"best cost {fronts['IDBEA'][e['seed']].objectives[:, 0].min():.1f}"
            f", {e['wall_time']:.1f}s" for e in manifest["runs"]]
        assert "IDBEA seed 1" in messages[0]

    def test_solve_writes_its_front_and_returns_its_entry(self, tmp_path):
        system = load_system("system2")
        ecfg = EngineConfig(algorithm="IBEA", rng_seed=3, **TINY)
        (tmp_path / "IBEA").mkdir()
        entry, best_cost, caught = cli._solve(
            (system, ecfg, "chpeed", tmp_path))
        front = run(system, ecfg, "chpeed")
        assert entry.pop("wall_time") > 0
        assert entry == {"algorithm": "IBEA", "seed": 3,
                         "file": "IBEA/IBEA_seed3.csv",
                         "front_size": len(front), "n_evaluations": 64}
        assert best_cost == front.objectives[:, 0].min()
        assert caught == []
        _write_front_csv(tmp_path / "expected.csv", front, system)
        assert (tmp_path / "IBEA" / "IBEA_seed3.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes()

    def test_chped_records(self, chped_experiment):
        exp_dir, manifest = chped_experiment
        entry, = manifest["runs"]
        assert (entry["algorithm"], entry["seed"]) == ("IDBEA", 1)
        front = _read_front_csv(exp_dir / entry["file"])
        assert front.objectives.shape[1] == 1

    def test_chped_csv_has_no_emission_column(self, chped_experiment):
        exp_dir, _ = chped_experiment
        header = (exp_dir / "IDBEA" / "IDBEA_seed1.csv").read_text() \
            .splitlines()[0]
        assert header == "cost,violation,p1,o1,o2,h1,h2,t1"


# Derandomized, so every run of the suite draws the same examples.
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)

# signed zeros, subnormals and the ends of the float range, where a text
# round trip is most likely to lose bits
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                         1e-310, 1e308, -1e308, 1.7976931348623157e308, 0.1])
_FLOAT = st.one_of(_EDGE, st.floats(allow_nan=False))


@st.composite
def _fronts(draw):
    """(FrontArchive, system) with 0-6 rows of system2's shape."""
    system = load_system("system2")
    n_obj = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(0, 6))
    width = n_obj + 1 + system.n_genes
    cells = draw(st.lists(_FLOAT, min_size=n * width, max_size=n * width))
    data = np.array(cells, float).reshape(n, width)
    front = FrontArchive(genes=data[:, n_obj + 1:], objectives=data[:, :n_obj],
                         violations=data[:, n_obj])
    return front, system


def _bit_rows(data: np.ndarray) -> list:
    return sorted(map(tuple, np.ascontiguousarray(data).view(np.uint64)))


@st.composite
def _surfaces(draw):
    """{level: (m, 2) array} for three levels whose cells come from one
    small pool, so values repeat within and across levels."""
    pool = draw(st.lists(_FLOAT, min_size=1, max_size=5)) + [0.0, -0.0]
    out = {}
    for level in (25.0, 50.0, 75.0):
        m = draw(st.integers(0, 5))
        cells = draw(st.lists(st.sampled_from(pool), min_size=2 * m,
                              max_size=2 * m))
        out[level] = np.array(cells, float).reshape(m, 2)
    return out


def _front_text(tmp_path, *body):
    path = tmp_path / "A_seed1.csv"
    path.write_text("cost,emission,violation,p1\n" + "".join(body))
    return path


class TestFrontFiles:
    @PROPERTY
    @given(_fronts())
    def test_roundtrip_keeps_every_bit(self, drawn):
        front, system = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "A_seed1.csv"
            _write_front_csv(path, front, system)
            back = _read_front_csv(path)
            text = path.read_text()
        assert back.genes.shape == front.genes.shape
        assert back.objectives.shape == front.objectives.shape
        assert back.violations.shape == front.violations.shape
        stored = np.column_stack([front.objectives, front.violations,
                                  front.genes])
        loaded = np.column_stack([back.objectives, back.violations,
                                  back.genes])
        assert _bit_rows(loaded) == _bit_rows(stored)
        # the text is the one the per-cell writer gives the sorted rows
        n_obj = front.objectives.shape[1]
        header = text.split("\n", 1)[0].split(",")
        order = np.lexsort(np.delete(stored, n_obj, axis=1).T[::-1])
        assert text == _table(header, stored[order].tolist())

    def test_header_only_front(self, tmp_path):
        system = load_system("system2")
        front = FrontArchive(genes=np.empty((0, system.n_genes)),
                             objectives=np.empty((0, 2)),
                             violations=np.empty(0))
        path = tmp_path / "A_seed1.csv"
        _write_front_csv(path, front, system)
        assert path.read_text().count("\n") == 1
        back = _read_front_csv(path)
        assert back.genes.shape == (0, system.n_genes)
        assert back.objectives.shape == (0, 2)
        assert back.violations.shape == (0,)

    def test_blank_lines_skipped(self, tmp_path):
        path = _front_text(tmp_path, "\n1.0,2.0,0.0,3.0\n\n",
                           "4.0,5.0,0.0,6.0\n")
        back = _read_front_csv(path)
        assert back.objectives.tolist() == [[1.0, 2.0], [4.0, 5.0]]
        assert back.genes.tolist() == [[3.0], [6.0]]

    def test_ragged_row_names_file_and_line(self, tmp_path):
        path = _front_text(tmp_path, "1.0,2.0,0.0,3.0\n", "4.0,5.0,0.0\n")
        with pytest.raises(SystemLoadError,
                           match=r"A_seed1\.csv, line 3: 3 fields where "
                                 r"the header has 4"):
            _read_front_csv(path)

    def test_extra_field_in_every_row(self, tmp_path):
        path = _front_text(tmp_path, "1.0,2.0,0.0,3.0,9.0\n",
                           "4.0,5.0,0.0,6.0,9.0\n")
        with pytest.raises(SystemLoadError,
                           match=r"A_seed1\.csv, line 2: 5 fields where "
                                 r"the header has 4"):
            _read_front_csv(path)

    def test_cell_not_a_number(self, tmp_path):
        path = _front_text(tmp_path, "1.0,2.0,0.0,3.0\n", "4.0,x5,0.0,6.0\n")
        with pytest.raises(SystemLoadError,
                           match=r"A_seed1\.csv, line 3: 'x5' is not a "
                                 r"number"):
            _read_front_csv(path)

    def test_comment_line_refused(self, tmp_path):
        path = _front_text(tmp_path, "#1.0,2.0,0.0,3.0\n", "4.0,5.0,0.0,6.0\n")
        with pytest.raises(SystemLoadError,
                           match=r"A_seed1\.csv, line 2: '#1\.0' is not a "
                                 r"number"):
            _read_front_csv(path)
        path = _front_text(tmp_path, "1.0,2.0,0.0,3.0\n", "# a note\n")
        with pytest.raises(SystemLoadError, match=r"A_seed1\.csv, line 3"):
            _read_front_csv(path)

    def test_file_without_header_refused(self, tmp_path):
        path = tmp_path / "A_seed1.csv"
        path.write_text("")
        with pytest.raises(SystemLoadError, match=r"A_seed1\.csv has no header"):
            _read_front_csv(path)

    @PROPERTY
    @given(_surfaces())
    def test_eaf_files_match_cell_writer(self, surfaces):
        # the shared per-algorithm formatting writes what formatting each
        # cell on its own wrote
        fronts = {"A": {1: None, 2: None}}
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
                cli, "eaf_surfaces", lambda runs, levels: surfaces):
            written = cli._write_eaf(Path(tmp), fronts)
            texts = [p.read_text() for p in written]
        assert [p.name for p in written] == [
            "eaf_A_25.csv", "eaf_A_50.csv", "eaf_A_75.csv"]
        for level, text in zip(cli.EAF_LEVELS, texts):
            assert text == _table(("cost", "emission"),
                                  surfaces[level].tolist())


def _run_with_workers(monkeypatch, n_workers, cfg, root, **kwargs):
    monkeypatch.setattr(cli, "_workers", lambda n_runs: n_workers)
    return run_experiment(cfg, base_dir=root, **kwargs)


MIXED = ExperimentConfig(
    experiment_id="mixed", system="system2",
    algorithms=(EngineConfig(algorithm="IDBEA", **TINY),
                EngineConfig(algorithm="NSGA2", **TINY)),
    repetitions=3, seed_base=11)


class TestParallelRuns:
    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        usable = len(os.sched_getaffinity(0))
        assert cli._workers(1) == 1
        assert cli._workers(10 ** 6) == usable
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert cli._workers(5) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._workers(5) == 3
        monkeypatch.delattr(os, "fork")
        assert cli._workers(5) == 1

    def test_files_do_not_depend_on_worker_count(self, monkeypatch, tmp_path):
        manifests = []
        for n in (1, 2):
            manifest = _run_with_workers(monkeypatch, n, MIXED,
                                         tmp_path / str(n))
            assert multiprocessing.active_children() == []
            assert manifest == json.loads(
                (tmp_path / str(n) / "mixed" / "manifest.json").read_text())
            for entry in manifest["runs"]:
                assert entry.pop("wall_time") > 0
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        csvs = sorted(p.relative_to(tmp_path / "1")
                      for p in (tmp_path / "1").rglob("*.csv"))
        assert len(csvs) == 6
        for rel in csvs:
            assert (tmp_path / "1" / rel).read_bytes() == \
                (tmp_path / "2" / rel).read_bytes()

    def test_progress_and_records_in_task_order(self, monkeypatch, tmp_path):
        grid = [(alg, seed) for alg in ("IDBEA", "NSGA2")
                for seed in (11, 12, 13)]
        seen = []
        for n in (1, 2):
            messages = []
            manifest = _run_with_workers(monkeypatch, n, MIXED,
                                         tmp_path / str(n),
                                         progress=messages.append)
            assert [(e["algorithm"], e["seed"])
                    for e in manifest["runs"]] == grid
            assert [m.split(":")[0] for m in messages] == \
                [f"{alg} seed {seed}" for alg, seed in grid]
            # all but the trailing wall time
            seen.append([m.rsplit(",", 1)[0] for m in messages])
        assert seen[0] == seen[1]

    def test_worker_warnings_reach_the_caller(self, monkeypatch, tmp_path):
        monkeypatch.setattr(constraints, "LOSS_FIXED_POINT_MAX_ITERS", 1)
        cfg = ExperimentConfig(
            experiment_id="warn", system="system3",
            algorithms=(EngineConfig(algorithm="IDBEA", **TINY),),
            repetitions=2)
        texts = []
        for n in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _run_with_workers(monkeypatch, n, cfg, tmp_path / str(n))
            texts.append([str(w.message) for w in caught
                          if w.category is RuntimeWarning and str(w.message)
                          .startswith("power balance fixed point")])
        assert texts[0]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failed_run_propagates_and_leaves_no_worker(
            self, monkeypatch, tmp_path, n_workers):
        real = cli.engine_run

        def failing(system, ecfg, mode):
            if ecfg.rng_seed == 12:
                # as a worker stopped between writing and renaming a front
                alg = ecfg.algorithm
                (tmp_path / "mixed" / alg / f"{alg}_seed13.csv.tmp").touch()
                raise ArithmeticError("seed 12 failed")
            return real(system, ecfg, mode)

        monkeypatch.setattr(cli, "engine_run", failing)
        with pytest.raises(ArithmeticError, match="seed 12 failed"):
            _run_with_workers(monkeypatch, n_workers, MIXED, tmp_path)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "mixed" / "manifest.json").exists()
        assert list((tmp_path / "mixed").glob("*/*.tmp")) == []

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failed_rerun_leaves_no_stale_manifest(
            self, monkeypatch, tmp_path, capsys, n_workers):
        # the rerun overwrites the fronts of seeds 1 and 2 before seed 3
        # fails; the first run's manifest would list them as 64-evaluation
        # runs
        first = ExperimentConfig(
            experiment_id="again", system="system2", repetitions=3,
            algorithms=(EngineConfig(algorithm="IDBEA", **TINY),))
        _run_with_workers(monkeypatch, n_workers, first, tmp_path)
        exp_dir = tmp_path / "again"
        assert (exp_dir / "manifest.json").exists()
        real = cli.engine_run

        def failing(system, ecfg, mode):
            if ecfg.rng_seed == 3:
                raise ArithmeticError("seed 3 failed")
            return real(system, ecfg, mode)

        monkeypatch.setattr(cli, "engine_run", failing)
        second = replace(first, algorithms=(EngineConfig(
            algorithm="IDBEA", population_size=8, max_evaluations=400),))
        with pytest.raises(ArithmeticError, match="seed 3 failed"):
            _run_with_workers(monkeypatch, n_workers, second, tmp_path)
        assert not (exp_dir / "manifest.json").exists()
        assert main(["report", str(exp_dir)]) == 2
        assert "manifest not found" in capsys.readouterr().err


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
        _, _, manifest = paired_experiment
        exp_dir, _ = paired_reports
        _, fronts, _ = cli._load_experiment(exp_dir)
        walls = {(e["algorithm"], e["seed"]): e["wall_time"]
                 for e in manifest["runs"]}
        with open(exp_dir / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * len(walls)
        for row in rows:
            alg, seed = row["algorithm"], int(row["seed"])
            front = fronts[alg][seed]
            objs = front.objectives
            idx = {"best_cost": int(np.argmin(objs[:, 0])),
                   "best_emission": int(np.argmin(objs[:, 1])),
                   "compromise": cli._compromise_index(objs)}[row["solution"]]
            assert float(row["cost"]) == objs[idx, 0]
            assert float(row["emission"]) == objs[idx, 1]
            assert float(row["violation"]) == front.violations[idx]
            assert float(row["ploss"]) == 0.0
            genes = [float(row[c]) for c in
                     ("p1", "o1", "o2", "o3", "h1", "h2", "h3", "t1")]
            assert np.array_equal(genes, front.genes[idx])
            assert float(row["wall_time_s"]) == walls[alg, seed]

    def test_summary_statistics(self, paired_experiment, paired_reports):
        _, exp_dir, manifest = paired_experiment
        _, fronts, _ = cli._load_experiment(exp_dir)
        with open(exp_dir / "summary.csv", newline="") as fh:
            rows = {r["algorithm"]: r for r in csv.DictReader(fh)}
        assert set(rows) == {"IDBEA", "IBEA"}
        for alg, row in rows.items():
            runs = [e for e in manifest["runs"] if e["algorithm"] == alg]
            mins = [fronts[alg][e["seed"]].objectives[:, 0].min() for e in runs]
            ems = [fronts[alg][e["seed"]].objectives[:, 1].min() for e in runs]
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
                fronts[alg, seed] = _read_front_csv(path)
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
        fronts = [_read_front_csv(exp_dir / "IDBEA" / f"IDBEA_seed{s}.csv")
                  for s in (5, 6, 7)]
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
            front = _read_front_csv(exp_dir / "IDBEA" / f"IDBEA_seed{seed}.csv")
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

    def test_manifest_with_retired_engine_keys(self, paired_reports,
                                               tmp_path):
        # manifests written before the variation and indicator constants
        # were fixed record them, and each entry's rng_seed, per algorithm
        exp_dir, written = paired_reports
        old = tmp_path / "old"
        shutil.copytree(exp_dir, old, ignore=shutil.ignore_patterns("*.csv"))
        for alg in ("IDBEA", "IBEA"):
            shutil.copytree(exp_dir / alg, old / alg, dirs_exist_ok=True)
        manifest = json.loads((old / "manifest.json").read_text())
        for entry in manifest["algorithms"]:
            entry.update(crossover_prob=0.9, mutation_prob=None, sbx_eta=20.0,
                         pm_eta=20.0, kappa=0.05, archive_keep_fraction=0.8,
                         rng_seed=0)
        (old / "manifest.json").write_text(json.dumps(manifest))
        again = emit_reports(old)
        assert [p.name for p in again] == [p.name for p in written]
        for path in written:
            assert (old / path.name).read_bytes() == path.read_bytes()

    def test_reads_only_the_runs_the_manifest_lists(self, tmp_path):
        # a second run into the same experiment leaves the first run's
        # fronts on disk; the report is over the runs of the second alone
        first = ExperimentConfig(
            experiment_id="x", system="system2", repetitions=2,
            algorithms=(EngineConfig(algorithm="IDBEA", **TINY),
                        EngineConfig(algorithm="IBEA", **TINY)))
        run_experiment(first, base_dir=tmp_path)
        second = replace(first, seed_base=10, algorithms=(
            EngineConfig(algorithm="NSGA2", **TINY),))
        manifest = run_experiment(second, base_dir=tmp_path)
        exp_dir = tmp_path / "x"
        assert (exp_dir / "IDBEA" / "IDBEA_seed1.csv").exists()
        written = {p.name for p in emit_reports(exp_dir)}
        assert written == {"report.csv", "summary.csv", "metrics.csv",
                           "eaf_NSGA2_25.csv", "eaf_NSGA2_50.csv",
                           "eaf_NSGA2_75.csv"}
        tables = {}
        for name in ("report.csv", "summary.csv", "metrics.csv"):
            with open(exp_dir / name, newline="") as fh:
                tables[name] = list(csv.DictReader(fh))
        runs = {("NSGA2", 10), ("NSGA2", 11)}
        assert {(r["algorithm"], int(r["seed"]))
                for r in tables["report.csv"]} == runs
        assert len(tables["report.csv"]) == 3 * len(runs)
        assert [(r["algorithm"], int(r["runs"]))
                for r in tables["summary.csv"]] == [("NSGA2", 2)]
        assert float(tables["summary.csv"][0]["mean_wall_time_s"]) == \
            np.mean([e["wall_time"] for e in manifest["runs"]])
        assert {(r["algorithm"], int(r["seed"]))
                for r in tables["metrics.csv"]} == runs
        assert len(tables["metrics.csv"]) == len(runs)

    @pytest.mark.parametrize("seed_base", [1, 5, 11])
    def test_compare_is_the_wilcoxon_test_over_metrics(self, tmp_path,
                                                        seed_base):
        # with three algorithms a pair's own fronts need not span the union
        # bounds, so compare.csv agrees with metrics.csv only by testing
        # the metrics.csv values themselves
        algs = ("IDBEA", "IBEA", "NSGA2")
        cfg = ExperimentConfig(
            experiment_id="three", system="system2", repetitions=3,
            seed_base=seed_base,
            algorithms=tuple(EngineConfig(algorithm=a, **TINY) for a in algs))
        run_experiment(cfg, base_dir=tmp_path)
        exp_dir = tmp_path / "three"
        emit_reports(exp_dir)
        scores = {}
        with open(exp_dir / "metrics.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                scores[row["algorithm"], int(row["seed"])] = {
                    m: float(row[m]) if row[m] else None
                    for m in ("hv", "spread")}
        with open(exp_dir / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["algorithm_a"], r["algorithm_b"], r["metric"])
                for r in rows] == [(a, b, m) for a, b in
                                   (("IBEA", "IDBEA"), ("IBEA", "NSGA2"),
                                    ("IDBEA", "NSGA2"))
                                   for m in ("hv", "spread")]
        seeds = range(seed_base, seed_base + 3)
        for row in rows:
            a, b, m = row["algorithm_a"], row["algorithm_b"], row["metric"]
            pairs = [(scores[a, s][m], scores[b, s][m]) for s in seeds]
            assert all(None not in pair for pair in pairs)
            p, reject = wilcoxon_signed_rank(pairs)
            means = [float(np.mean(side)) for side in zip(*pairs)]
            assert int(row["n_pairs"]) == 3
            assert [float(row["mean_a"]), float(row["mean_b"])] == means
            assert float(row["p_value"]) == p
            assert row["reject"] == str(reject)

    def test_each_front_scored_once(self, paired_reports, monkeypatch):
        # compare.csv reuses the metrics.csv values: no front is scored
        # a second time on other bounds
        exp_dir, _ = paired_reports
        calls = {"hv_metric": 0, "spread_delta": 0}

        def counted(name):
            fn = getattr(cli, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        emit_reports(exp_dir)
        assert calls == {"hv_metric": 6, "spread_delta": 6}

    def test_each_front_read_once(self, paired_reports, monkeypatch):
        exp_dir, _ = paired_reports
        reads = []

        def counted(path):
            reads.append(path)
            return _read_front_csv(path)

        monkeypatch.setattr(cli, "_read_front_csv", counted)
        emit_reports(exp_dir)
        fronts = sorted(exp_dir.glob("*/*_seed*.csv"))
        assert len(fronts) == 6
        assert sorted(reads) == fronts


def _entry(drop=None, **over):
    """A manifest run entry for the paired experiment's IDBEA seed 5, with
    the keys in over changed and the key drop left out."""
    entry = {"algorithm": "IDBEA", "seed": 5, "file": "IDBEA/IDBEA_seed5.csv",
             "wall_time": 1.0, "front_size": 3, "n_evaluations": 64, **over}
    entry.pop(drop, None)
    return entry


def _listing(*runs, **over):
    """A manifest on system2 that lists the given run entries."""
    return {"system": "system2", "system_id": "system2", "runs": list(runs),
            **over}


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

    def test_report_subcommand(self, paired_reports, capsys):
        exp_dir, _ = paired_reports
        assert main(["report", str(exp_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote ") == 10

    @staticmethod
    def _few_runs(exp_dir, work):
        """Copy of exp_dir keeping IDBEA seed 5 and IBEA seeds 5 and 6."""
        kept = {("IDBEA", 5), ("IBEA", 5), ("IBEA", 6)}
        manifest = json.loads((exp_dir / "manifest.json").read_text())
        manifest["runs"] = [r for r in manifest["runs"]
                            if (r["algorithm"], r["seed"]) in kept]
        for alg, seed in kept:
            (work / alg).mkdir(parents=True, exist_ok=True)
            shutil.copy(exp_dir / alg / f"{alg}_seed{seed}.csv", work / alg)
        (work / "manifest.json").write_text(json.dumps(manifest))
        return work

    def test_compare_needs_shared_seeds(self, paired_reports, tmp_path,
                                        capsys):
        # the Wilcoxon comparison needs two seeds that both algorithms ran
        exp_dir, _ = paired_reports
        work = self._few_runs(exp_dir, tmp_path / "few")
        assert main(["report", str(work)]) == 0
        capsys.readouterr()
        assert (work / "metrics.csv").exists()
        assert not (work / "compare.csv").exists()

    def test_one_point_front_drops_only_its_spread_pair(self, paired_reports,
                                                        tmp_path, capsys):
        # a one-point front has hv but no spread: its seed leaves the
        # spread test and stays in the hv test
        exp_dir, _ = paired_reports
        work = tmp_path / "copy"
        shutil.copytree(exp_dir, work)
        cut = work / "IDBEA" / "IDBEA_seed6.csv"
        cut.write_text("".join(cut.read_text().splitlines(True)[:2]))
        assert main(["report", str(work)]) == 0
        capsys.readouterr()
        with open(work / "metrics.csv", newline="") as fh:
            spreads = {(r["algorithm"], r["seed"]): r["spread"]
                       for r in csv.DictReader(fh)}
        assert spreads["IDBEA", "6"] == ""
        with open(work / "compare.csv", newline="") as fh:
            n_pairs = {r["metric"]: int(r["n_pairs"])
                       for r in csv.DictReader(fh)}
        assert n_pairs == {"hv": 3, "spread": 2}

    def test_flat_objective_refused_by_name(self, tmp_path, capsys):
        # every emission coefficient of system1 is 0, so no bounds span
        # its emission
        cfg = ExperimentConfig(
            experiment_id="flat", system="system1", repetitions=2,
            algorithms=(EngineConfig(algorithm="IDBEA", **TINY),))
        run_experiment(cfg, base_dir=tmp_path)
        assert main(["report", str(tmp_path / "flat")]) == 2
        err = capsys.readouterr().err
        assert "error: emission is 0.0 on every front" in err
        assert "hv and spread are undefined" in err

    def test_eaf_needs_two_runs_per_algorithm(self, paired_reports, tmp_path,
                                              capsys):
        # EAF surfaces need two runs of an algorithm
        exp_dir, _ = paired_reports
        work = self._few_runs(exp_dir, tmp_path / "few")
        assert main(["report", str(work)]) == 0
        capsys.readouterr()
        assert {p.name for p in work.glob("eaf_*.csv")} == {
            "eaf_IBEA_25.csv", "eaf_IBEA_50.csv", "eaf_IBEA_75.csv"}

    def test_missing_listed_front_refused(self, paired_reports, tmp_path,
                                          capsys):
        exp_dir, _ = paired_reports
        work = tmp_path / "copy"
        shutil.copytree(exp_dir, work)
        gone = work / "IBEA" / "IBEA_seed6.csv"
        gone.unlink()
        assert main(["report", str(work)]) == 2
        err = capsys.readouterr().err
        assert str(gone) in err
        assert "front file not found" in err

    def test_report_missing_manifest(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "manifest not found" in capsys.readouterr().err

    def test_report_manifest_not_json(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{bad")
        assert main(["report", str(tmp_path)]) == 2
        assert f"error: {path} is not valid JSON: Expecting property name" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("manifest, message", [
        ([], "must hold a JSON object"),
        ({}, "is missing 'system'"),
        ({"system": "system2"}, "is missing 'system_id'"),
        ({"system": "system2", "system_id": "system2"}, "is missing 'runs'"),
        (_listing(_entry(), system=5), "'system' must be a string"),
        (_listing(runs={"IDBEA": 5}), "'runs' must be a non-empty list"),
        (_listing(), "'runs' must be a non-empty list"),
        (_listing(1), "runs[0] must hold a JSON object"),
        (_listing(_entry(), [_entry()]), "runs[1] must hold a JSON object"),
    ] + [(_listing(_entry(drop=key)), f"runs[0] is missing '{key}'")
         for key in ("algorithm", "seed", "file", "wall_time")] + [
        (_listing(_entry(algorithm=5)), "'algorithm' must be a plain name"),
        (_listing(_entry(algorithm="..", file="../.._seed5.csv")),
         "'algorithm' must be a plain name, not '..'"),
        (_listing(_entry(seed="5")), "'seed' must be an integer, not '5'"),
        (_listing(_entry(seed=5.0)), "'seed' must be an integer, not 5.0"),
        (_listing(_entry(seed=True)), "'seed' must be an integer, not True"),
        (_listing(_entry(wall_time="1")), "'wall_time' must be a number"),
        (_listing(_entry(wall_time=None)), "'wall_time' must be a number"),
        (_listing(_entry(file="../x.csv")),
         "file '../x.csv' is not 'IDBEA/IDBEA_seed5.csv'"),
        (_listing(_entry(file="IBEA/IBEA_seed5.csv")),
         "is not 'IDBEA/IDBEA_seed5.csv'"),
        (_listing(_entry(), _entry(wall_time=2.0)),
         "runs[1] repeats IDBEA seed 5"),
    ])
    def test_report_malformed_manifest(self, paired_reports, tmp_path,
                                       capsys, manifest, message):
        exp_dir, _ = paired_reports
        work = tmp_path / "copy"
        shutil.copytree(exp_dir, work)
        (work / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", str(work)]) == 2
        assert message in capsys.readouterr().err

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_python_dash_m_runs_main_without_warnings(self):
        # the package imports cli, so only a __main__ module gives a clean
        # python3 -m entry point
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-m", "chpdispatch", "--help"],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert out.returncode == 0
        assert "{run,report}" in out.stdout
        assert "RuntimeWarning" not in out.stderr

    @pytest.mark.parametrize("argv", [
        ["metrics", "runs/demo"], ["eaf", "runs/demo"],
        ["compare", "runs/demo/IDBEA", "runs/demo/IBEA"],
        ["report", "runs/demo", "--alpha", "0.1"],
    ], ids=["metrics", "eaf", "compare", "report-alpha"])
    def test_retired_subcommands_and_options_refused(self, argv):
        # report writes every table these wrote, at fixed EAF levels and
        # the fixed Wilcoxon alpha; argparse refuses before any file is
        # read
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
