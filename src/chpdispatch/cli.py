"""Experiment harness and command-line interface.

Subcommands:
  run      execute a batch experiment file (seeded repetitions x algorithms)
  metrics  hypervolume + spread per persisted run
  eaf      empirical attainment surface polylines per algorithm
  compare  paired Wilcoxon test between two algorithms' run sets
  report   dispatch tables, summary statistics, metrics, comparisons, EAF

Output layout: <root>/<experiment_id>/<algorithm>/<algorithm>_seed<N>.csv
plus manifest.json at the experiment level. The CHPDISPATCH_OUTPUT_ROOT
environment variable overrides the configured output root. Front files
are written atomically (temp file + rename) with repr-exact floats, so a
rerun with identical config and seed reproduces them byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .constraints import ConstraintConfig
from .engine import EngineConfig, FrontArchive, run as engine_run
from .metrics import (NormalizationBounds, eaf_surfaces, hv_metric,
                      spread_delta, wilcoxon_signed_rank)
from .model import SystemDefinition, SystemLoadError, load_system, loss_batch

OUTPUT_ROOT_ENV = "CHPDISPATCH_OUTPUT_ROOT"
DEFAULT_EAF_LEVELS = (25.0, 50.0, 75.0)

_EXPERIMENT_KEYS = {
    "experiment_id", "system", "mode", "repetitions", "seed_base",
    "output_dir", "constraints", "algorithms",
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    system: str
    algorithms: tuple[EngineConfig, ...]
    mode: str = "chpeed"
    repetitions: int = 1
    seed_base: int = 1
    output_dir: str = "runs"
    constraints: ConstraintConfig = field(default_factory=ConstraintConfig)

    def __post_init__(self):
        if not self.experiment_id or "/" in self.experiment_id \
                or os.sep in self.experiment_id:
            raise ValueError("experiment_id must be a plain directory name")
        if self.mode not in ("chped", "chpeed"):
            raise ValueError("mode must be 'chped' or 'chpeed'")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.algorithms:
            raise ValueError("at least one algorithm entry is required")
        tags = [a.algorithm for a in self.algorithms]
        if len(set(tags)) != len(tags):
            raise ValueError("algorithm tags must be unique per experiment")


@dataclass(frozen=True)
class RunRecord:
    experiment_id: str
    algorithm: str
    seed: int
    wall_time: float
    front: FrontArchive
    best_cost_point: tuple
    best_emission_point: tuple | None
    compromise_point: tuple


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise SystemLoadError(f"experiment file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemLoadError(f"experiment file is not valid JSON: {exc}") from exc
    unknown = set(data) - _EXPERIMENT_KEYS
    if unknown:
        raise SystemLoadError(f"experiment file has unknown field(s): {sorted(unknown)}")
    for key in ("experiment_id", "system", "algorithms"):
        if key not in data:
            raise SystemLoadError(f"experiment file is missing '{key}'")
    try:
        constraints = ConstraintConfig(**data.get("constraints", {}))
    except (TypeError, ValueError) as exc:
        raise SystemLoadError(f"constraints section: {exc}") from exc
    algorithms = []
    for i, entry in enumerate(data["algorithms"]):
        try:
            algorithms.append(EngineConfig(**entry))
        except (TypeError, ValueError) as exc:
            raise SystemLoadError(f"algorithms[{i}]: {exc}") from exc
    try:
        return ExperimentConfig(
            experiment_id=data["experiment_id"],
            system=data["system"],
            algorithms=tuple(algorithms),
            mode=data.get("mode", "chpeed"),
            repetitions=int(data.get("repetitions", 1)),
            seed_base=int(data.get("seed_base", 1)),
            output_dir=data.get("output_dir", "runs"),
            constraints=constraints,
        )
    except ValueError as exc:
        raise SystemLoadError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Compromise selection.
# ---------------------------------------------------------------------------

def _compromise_index(objectives: np.ndarray) -> int:
    lo = objectives.min(axis=0)
    span = objectives.max(axis=0) - lo
    norm = np.zeros_like(objectives)
    nz = span > 0
    norm[:, nz] = (objectives[:, nz] - lo[nz]) / span[nz]
    worst = norm.max(axis=1)
    candidates = np.flatnonzero(worst == worst.min())
    order = np.lexsort(tuple(objectives[candidates, j]
                             for j in range(objectives.shape[1] - 1, -1, -1)))
    return int(candidates[order[0]])


def select_compromise(front) -> tuple:
    """The front member minimizing its worst normalized objective; ties
    break toward the lowest cost."""
    objs = np.atleast_2d(np.asarray(getattr(front, "objectives", front), float))
    if objs.shape[0] == 0:
        raise ValueError("compromise selection needs a non-empty front")
    return tuple(objs[_compromise_index(objs)])


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

def _gene_columns(n_power: int, n_cogen: int, n_heat: int) -> list[str]:
    cols = [f"p{j + 1}" for j in range(n_power)]
    cols += [f"o{j + 1}" for j in range(n_cogen)]
    cols += [f"h{j + 1}" for j in range(n_cogen)]
    cols += [f"t{j + 1}" for j in range(n_heat)]
    return cols


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_front_csv(path: Path, front: FrontArchive,
                     system: SystemDefinition) -> None:
    two_obj = front.objectives.shape[1] == 2
    header = ["cost", "emission", "violation"] if two_obj \
        else ["cost", "violation"]
    header += _gene_columns(system.n_power, system.n_cogen, system.n_heat)
    key_cols = [front.genes[:, j] for j in range(front.genes.shape[1] - 1, -1, -1)]
    key_cols += [front.objectives[:, j]
                 for j in range(front.objectives.shape[1] - 1, -1, -1)]
    order = np.lexsort(tuple(key_cols))
    lines = [",".join(header)]
    for i in order:
        row = list(front.objectives[i]) + [front.violations[i]] \
            + list(front.genes[i])
        lines.append(",".join(repr(float(v)) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _read_front_csv(path: Path, algorithm: str, seed: int,
                    system_id: str = "") -> FrontArchive:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.array(rows, float) if rows else np.empty((0, len(header)))
    n_obj = 2 if "emission" in header else 1
    return FrontArchive(
        genes=data[:, n_obj + 1:],
        objectives=data[:, :n_obj],
        violations=data[:, n_obj],
        run_id=path.stem,
        seed=seed,
        system_id=system_id,
        algorithm=algorithm,
    )


def _seed_files(directory: Path, prefix: str = "*") -> dict[int, Path]:
    """{seed: csv path} of the <prefix>_seed<N>.csv files in a directory."""
    runs = {}
    for f in sorted(directory.glob(f"{prefix}_seed*.csv")):
        try:
            runs[int(f.stem.rsplit("seed", 1)[1])] = f
        except (IndexError, ValueError):
            continue
    return runs


def _discover_runs(exp_dir: Path) -> dict[str, dict[int, Path]]:
    """{algorithm: {seed: csv path}} found under an experiment directory."""
    found = {}
    for alg_dir in sorted(p for p in exp_dir.iterdir() if p.is_dir()):
        runs = _seed_files(alg_dir, alg_dir.name)
        if runs:
            found[alg_dir.name] = runs
    if not found:
        raise SystemLoadError(f"no run files found under {exp_dir}")
    return found


def _load_fronts(found, system_id: str = "") -> dict[str, dict[int, FrontArchive]]:
    """Read every discovered front CSV once: {algorithm: {seed: front}}."""
    return {alg: {seed: _read_front_csv(path, alg, seed, system_id)
                  for seed, path in runs.items()}
            for alg, runs in found.items()}


def _load_manifest(exp_dir: Path) -> dict:
    path = exp_dir / "manifest.json"
    if not path.exists():
        raise SystemLoadError(f"manifest not found: {path}")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Experiment execution.
# ---------------------------------------------------------------------------

def _output_base(cfg: ExperimentConfig, base_dir=None) -> Path:
    if base_dir is not None:
        return Path(base_dir)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(env) if env else Path(cfg.output_dir)


def run_experiment(cfg: ExperimentConfig, base_dir=None,
                   progress=None) -> list[RunRecord]:
    """Run all seeded repetitions of all configured algorithms, persisting
    one front CSV per run plus a manifest; returns the run records."""
    system = load_system(cfg.system)
    exp_dir = _output_base(cfg, base_dir) / cfg.experiment_id
    exp_dir.mkdir(parents=True, exist_ok=True)
    records = []
    manifest_runs = []
    for ecfg in cfg.algorithms:
        alg_dir = exp_dir / ecfg.algorithm
        alg_dir.mkdir(exist_ok=True)
        for rep in range(cfg.repetitions):
            seed = cfg.seed_base + rep
            t0 = time.perf_counter()
            front = engine_run(system, replace(ecfg, rng_seed=seed),
                               cfg.constraints, cfg.mode)
            wall = time.perf_counter() - t0
            path = alg_dir / f"{ecfg.algorithm}_seed{seed}.csv"
            _write_front_csv(path, front, system)

            objs = front.objectives
            best_cost = tuple(objs[int(np.argmin(objs[:, 0]))])
            best_em = tuple(objs[int(np.argmin(objs[:, 1]))]) \
                if objs.shape[1] == 2 else None
            rec = RunRecord(
                experiment_id=cfg.experiment_id,
                algorithm=ecfg.algorithm,
                seed=seed,
                wall_time=wall,
                front=front,
                best_cost_point=best_cost,
                best_emission_point=best_em,
                compromise_point=select_compromise(front),
            )
            records.append(rec)
            manifest_runs.append({
                "algorithm": ecfg.algorithm,
                "seed": seed,
                "file": str(path.relative_to(exp_dir)),
                "front_size": len(front),
                "n_evaluations": front.n_evaluations,
                "wall_time": wall,
            })
            if progress:
                progress(f"{ecfg.algorithm} seed {seed}: "
                         f"{len(front)} front points, "
                         f"best cost {best_cost[0]:.1f}, {wall:.1f}s")
    manifest = {
        "experiment_id": cfg.experiment_id,
        "system": cfg.system,
        "system_id": system.name,
        "mode": cfg.mode,
        "repetitions": cfg.repetitions,
        "seed_base": cfg.seed_base,
        "constraints": asdict(cfg.constraints),
        "algorithms": [asdict(a) for a in cfg.algorithms],
        "runs": manifest_runs,
    }
    _atomic_write(exp_dir / "manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return records


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _metric_rows(fronts, system_id: str, bounds: NormalizationBounds):
    rows = []
    for alg in sorted(fronts):
        for seed in sorted(fronts[alg]):
            front = fronts[alg][seed]
            if front.objectives.shape[1] != 2:
                raise SystemLoadError(
                    "metrics need bi-objective fronts; this run is single-objective")
            rows.append((system_id, alg, seed,
                         hv_metric(front, bounds),
                         spread_delta(front, bounds)))
    return rows


def _union_bounds(fronts) -> NormalizationBounds:
    return NormalizationBounds.from_fronts(
        [f for runs in fronts.values() for f in runs.values()])


def _write_metrics_csv(path: Path, rows) -> None:
    lines = ["system,algorithm,seed,hv,spread"]
    for system_id, alg, seed, hv, spread in rows:
        lines.append(f"{system_id},{alg},{seed},{_fmt(hv)},{_fmt(spread)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _compare_rows(fronts, alpha: float):
    """Paired hv/spread Wilcoxon rows for every algorithm pair sharing seeds."""
    algs = sorted(fronts)
    out = []
    for i, a in enumerate(algs):
        for b in algs[i + 1:]:
            seeds = sorted(set(fronts[a]) & set(fronts[b]))
            if len(seeds) < 2:
                continue
            paired = [(fronts[a][s], fronts[b][s]) for s in seeds]
            bounds = NormalizationBounds.from_fronts(
                [f for pair in paired for f in pair])
            for metric, fn in (("hv", hv_metric), ("spread", spread_delta)):
                pairs = [(fn(fa, bounds), fn(fb, bounds)) for fa, fb in paired]
                p, reject = wilcoxon_signed_rank(pairs, alpha)
                mean_a = float(np.mean([x for x, _ in pairs]))
                mean_b = float(np.mean([y for _, y in pairs]))
                out.append((a, b, metric, len(seeds), mean_a, mean_b, p, reject))
    return out


def _solution_rows(front: FrontArchive):
    objs = front.objectives
    rows = [("best_cost", int(np.argmin(objs[:, 0])))]
    if objs.shape[1] == 2:
        rows.append(("best_emission", int(np.argmin(objs[:, 1]))))
        rows.append(("compromise", _compromise_index(objs)))
    return rows


def emit_reports(exp_dir, alpha: float = 0.05,
                 eaf_levels=DEFAULT_EAF_LEVELS) -> list[Path]:
    """Write dispatch/report tables for a persisted experiment directory:
    report.csv, summary.csv, and (bi-objective runs) metrics.csv,
    compare.csv, and EAF polylines. Pure function of the persisted files."""
    exp_dir = Path(exp_dir)
    manifest = _load_manifest(exp_dir)
    system = load_system(manifest["system"])
    fronts = _load_fronts(_discover_runs(exp_dir), system.name)
    walls = {(r["algorithm"], r["seed"]): r["wall_time"]
             for r in manifest.get("runs", [])}
    written = []

    gene_cols = _gene_columns(system.n_power, system.n_cogen, system.n_heat)
    report_lines = [",".join(
        ["algorithm", "seed", "solution", "cost", "emission", "ploss",
         "violation"] + gene_cols + ["wall_time_s"])]
    summary_lines = ["algorithm,runs,best_cost,worst_cost,mean_cost,"
                     "std_cost,best_emission,mean_wall_time_s"]
    two_obj = True
    for alg in sorted(fronts):
        min_costs, min_ems, alg_walls = [], [], []
        for seed in sorted(fronts[alg]):
            front = fronts[alg][seed]
            two_obj = front.objectives.shape[1] == 2
            p, o, _, _ = system.split_genes(front.genes)
            ploss = loss_batch(p, o, system)
            wall = walls.get((alg, seed))
            for label, idx in _solution_rows(front):
                row = [alg, str(seed), label,
                       _fmt(front.objectives[idx, 0]),
                       _fmt(front.objectives[idx, 1]) if two_obj else "",
                       _fmt(ploss[idx]),
                       _fmt(front.violations[idx])]
                row += [_fmt(v) for v in front.genes[idx]]
                row.append(_fmt(wall))
                report_lines.append(",".join(row))
            min_costs.append(front.objectives[:, 0].min())
            if two_obj:
                min_ems.append(front.objectives[:, 1].min())
            if wall is not None:
                alg_walls.append(wall)
        costs = np.array(min_costs)
        std = costs.std(ddof=1) if costs.shape[0] > 1 else 0.0
        summary_lines.append(",".join([
            alg, str(costs.shape[0]), _fmt(costs.min()), _fmt(costs.max()),
            _fmt(costs.mean()), _fmt(std),
            _fmt(min(min_ems)) if min_ems else "",
            _fmt(np.mean(alg_walls)) if alg_walls else "",
        ]))

    path = exp_dir / "report.csv"
    _atomic_write(path, "\n".join(report_lines) + "\n")
    written.append(path)
    path = exp_dir / "summary.csv"
    _atomic_write(path, "\n".join(summary_lines) + "\n")
    written.append(path)

    if two_obj:
        path = exp_dir / "metrics.csv"
        _write_metrics_csv(path, _metric_rows(fronts, system.name,
                                              _union_bounds(fronts)))
        written.append(path)

        rows = _compare_rows(fronts, alpha)
        if rows:
            lines = ["algorithm_a,algorithm_b,metric,n_pairs,mean_a,mean_b,"
                     "p_value,reject"]
            for a, b, metric, n, ma, mb, p, rej in rows:
                lines.append(f"{a},{b},{metric},{n},{_fmt(ma)},{_fmt(mb)},"
                             f"{_fmt(p)},{rej}")
            path = exp_dir / "compare.csv"
            _atomic_write(path, "\n".join(lines) + "\n")
            written.append(path)

        written += _write_eaf(exp_dir, fronts, eaf_levels)
    return written


def _write_eaf(exp_dir: Path, fronts, levels) -> list[Path]:
    """eaf_<algorithm>_<level>.csv polylines for every algorithm with at
    least 2 runs; returns the paths written."""
    written = []
    for alg in sorted(fronts):
        if len(fronts[alg]) < 2:
            continue
        runs = [fronts[alg][s] for s in sorted(fronts[alg])]
        surfaces = eaf_surfaces(runs, levels)
        for level in sorted(surfaces):
            tag = str(int(level)) if float(level).is_integer() else repr(level)
            path = exp_dir / f"eaf_{alg}_{tag}.csv"
            lines = ["cost,emission"]
            lines += [f"{_fmt(x)},{_fmt(y)}" for x, y in surfaces[level]]
            _atomic_write(path, "\n".join(lines) + "\n")
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = load_experiment(args.experiment)
    records = run_experiment(cfg, progress=print)
    exp_dir = _output_base(cfg) / cfg.experiment_id
    print(f"{len(records)} run(s) written under {exp_dir}")
    return 0


def _parse_bounds(spec: str, fronts) -> NormalizationBounds:
    if spec == "union":
        return _union_bounds(fronts)
    path = Path(spec)
    if not path.exists():
        raise SystemLoadError(f"bounds file not found: {path}")
    data = json.loads(path.read_text())
    if "lower" not in data or "upper" not in data:
        raise SystemLoadError("bounds file must provide 'lower' and 'upper'")
    return NormalizationBounds(lower=data["lower"], upper=data["upper"])


def _cmd_metrics(args) -> int:
    exp_dir = Path(args.run_dir)
    manifest = _load_manifest(exp_dir)
    fronts = _load_fronts(_discover_runs(exp_dir), manifest["system_id"])
    bounds = _parse_bounds(args.bounds, fronts)
    rows = _metric_rows(fronts, manifest["system_id"], bounds)
    _write_metrics_csv(exp_dir / "metrics.csv", rows)
    print("system,algorithm,seed,hv,spread")
    for system_id, alg, seed, hv, spread in rows:
        print(f"{system_id},{alg},{seed},{hv:.6f},"
              f"{'' if spread is None else f'{spread:.6f}'}")
    return 0


def _cmd_eaf(args) -> int:
    exp_dir = Path(args.run_dir)
    levels = [float(v) for v in args.levels.split(",") if v.strip()]
    if not levels:
        raise SystemLoadError("no attainment levels given")
    manifest = _load_manifest(exp_dir)
    fronts = _load_fronts(_discover_runs(exp_dir), manifest["system_id"])
    for alg in sorted(fronts):
        if len(fronts[alg]) < 2:
            print(f"skipping {alg}: needs at least 2 runs", file=sys.stderr)
    written = _write_eaf(exp_dir, fronts, levels)
    for path in written:
        print(f"wrote {path}")
    if not written:
        raise SystemLoadError("no algorithm had enough runs for EAF surfaces")
    return 0


def _cmd_compare(args) -> int:
    if args.test != "wilcoxon":
        raise SystemLoadError(f"unknown test: {args.test}")
    dirs = []
    for d in (Path(args.run_dir_a), Path(args.run_dir_b)):
        runs = _seed_files(d)
        if not runs:
            raise SystemLoadError(f"no run files found under {d}")
        dirs.append((d.name, runs))
    (name_a, runs_a), (name_b, runs_b) = dirs
    if name_a == name_b:
        name_a, name_b = f"a:{name_a}", f"b:{name_b}"
    rows = _compare_rows(_load_fronts({name_a: runs_a, name_b: runs_b}),
                         args.alpha)
    if not rows:
        raise SystemLoadError("the two run sets share fewer than 2 seeds")
    print("algorithm_a,algorithm_b,metric,n_pairs,mean_a,mean_b,p_value,reject")
    for a, b, metric, n, ma, mb, p, rej in rows:
        print(f"{a},{b},{metric},{n},{ma:.6f},{mb:.6f},{p:.6g},{rej}")
    return 0


def _cmd_report(args) -> int:
    for path in emit_reports(args.run_dir, alpha=args.alpha):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chpdispatch",
        description="Combined heat and power dispatch optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a batch experiment file")
    p.add_argument("experiment", help="experiment definition JSON")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("metrics", help="hypervolume and spread per run")
    p.add_argument("run_dir", help="experiment output directory")
    p.add_argument("--bounds", default="union",
                   help="'union' or a JSON file with lower/upper arrays")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("eaf", help="empirical attainment surfaces")
    p.add_argument("run_dir")
    p.add_argument("--levels", default="25,50,75",
                   help="comma-separated attainment percentages")
    p.set_defaults(func=_cmd_eaf)

    p = sub.add_parser("compare", help="paired statistical comparison")
    p.add_argument("run_dir_a", help="first algorithm run directory")
    p.add_argument("run_dir_b", help="second algorithm run directory")
    p.add_argument("--test", default="wilcoxon")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="emit all report tables for a run dir")
    p.add_argument("run_dir")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SystemLoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
