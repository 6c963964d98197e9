"""Experiment harness and command-line interface.

Subcommands:
  run     execute a batch experiment file (seeded repetitions x algorithms)
  report  dispatch tables, summary statistics, hypervolume and spread per
          run, paired Wilcoxon comparisons and EAF surfaces

Output layout: <root>/<experiment_id>/<algorithm>/<algorithm>_seed<N>.csv
plus manifest.json at the experiment level, the one list of an
experiment's runs: report reads exactly the runs it lists. Each run's
worker writes its front file; run deletes the old manifest before any run
starts and writes the new one after the last. The
CHPDISPATCH_OUTPUT_ROOT environment variable overrides the configured
output root. Front files are written atomically (temp file + rename) with
repr-exact floats, so a rerun with identical config and seed reproduces
them byte for byte.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .engine import EngineConfig, FrontArchive, _normalize_objs, \
    run as engine_run
from .metrics import (NormalizationBounds, eaf_surfaces, hv_metric,
                      spread_delta, wilcoxon_signed_rank)
from .model import (SystemDefinition, SystemLoadError, check_section,
                    dataclass_keys, load_system, loss_batch, require_integers)

OUTPUT_ROOT_ENV = "CHPDISPATCH_OUTPUT_ROOT"
EAF_LEVELS = (25.0, 50.0, 75.0)

# what an algorithm entry may set: an EngineConfig but for the seed, which
# comes from seed_base
_ENTRY_KEYS = dataclass_keys(EngineConfig)[0] - {"rng_seed"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    system: str
    algorithms: tuple[EngineConfig, ...]
    mode: str = "chpeed"
    repetitions: int = 1
    seed_base: int = 1
    output_dir: str = "runs"

    def __post_init__(self):
        for name in ("experiment_id", "system", "mode", "output_dir"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, not {value!r}")
        if not _is_plain_name(self.experiment_id):
            raise ValueError("experiment_id must be a plain directory name")
        require_integers(self, ("repetitions", "seed_base"))
        if self.mode not in ("chped", "chpeed"):
            raise ValueError("mode must be 'chped' or 'chpeed'")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.algorithms:
            raise ValueError("at least one algorithm entry is required")
        tags = [a.algorithm for a in self.algorithms]
        if len(set(tags)) != len(tags):
            raise ValueError("algorithm tags must be unique per experiment")
        if self.mode == "chped" and {"IDBEA", "IBEA"} <= set(tags):
            raise ValueError("a chped experiment lists IDBEA or IBEA, not "
                             "both: in chped mode the two select identically")


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise SystemLoadError(f"experiment file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemLoadError(f"experiment file is not valid JSON: {exc}") from exc
    check_section(data, "experiment file", *dataclass_keys(ExperimentConfig))
    if not isinstance(data["algorithms"], list) \
            or not all(isinstance(e, dict) for e in data["algorithms"]):
        raise SystemLoadError("'algorithms' must be a list of JSON objects")
    algorithms = []
    for i, entry in enumerate(data["algorithms"]):
        if "rng_seed" in entry:
            raise SystemLoadError(
                f"algorithms[{i}] sets 'rng_seed'; seeds come from 'seed_base' "
                "and 'repetitions'")
        check_section(entry, f"algorithms[{i}]", _ENTRY_KEYS)
        try:
            algorithms.append(EngineConfig(**entry))
        except ValueError as exc:
            raise SystemLoadError(f"algorithms[{i}]: {exc}") from exc
    try:
        return ExperimentConfig(**{**data, "algorithms": tuple(algorithms)})
    except ValueError as exc:
        raise SystemLoadError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Compromise selection.
# ---------------------------------------------------------------------------

def _compromise_index(objectives: np.ndarray) -> int:
    worst = _normalize_objs(objectives).max(axis=1)
    candidates = np.flatnonzero(worst == worst.min())
    order = np.lexsort(tuple(objectives[candidates, j]
                             for j in range(objectives.shape[1] - 1, -1, -1)))
    return int(candidates[order[0]])


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


def _cell(value) -> str:
    """One CSV cell: floats (numpy's included) repr-exact, None empty,
    anything else str."""
    if isinstance(value, float):
        return float.__repr__(value)
    return "" if value is None else str(value)


def _table(header, rows) -> str:
    """CSV text of a header and rows of mixed cells (see _cell)."""
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _float_tables(header, arrays):
    """Yield the CSV text of a header over each of several 2-D float arrays
    in turn, the cells as _cell writes them. Each distinct value of all
    the arrays is formatted once: values are keyed by their bit pattern,
    so 0.0 and -0.0 keep their own text."""
    flat = np.concatenate([np.asarray(a, float).ravel() for a in arrays])
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    text = np.array(list(map(float.__repr__, bits.view(float).tolist())),
                    dtype=object)
    head = ",".join(header) + "\n"
    start = 0
    for a in arrays:
        rows, width = np.shape(a)
        # cells and separators interleaved, joined in one call
        grid = np.empty((rows, 2 * width), dtype=object)
        grid[:, 0::2] = text[inverse[start:start + rows * width]].reshape(
            rows, width)
        grid[:, 1::2] = ","
        grid[:, -1] = "\n"
        start += rows * width
        yield head + "".join(grid.ravel().tolist())


def _write_front_csv(path: Path, front: FrontArchive,
                     system: SystemDefinition) -> None:
    """Front rows sorted by objectives, then genes (the violation column is
    no sort key)."""
    n_obj = front.objectives.shape[1]
    header = ["cost", "emission"][:n_obj] + ["violation"]
    header += _gene_columns(system.n_power, system.n_cogen, system.n_heat)
    data = np.column_stack([front.objectives, front.violations, front.genes])
    order = np.lexsort(np.delete(data, n_obj, axis=1).T[::-1])
    _atomic_write(path, next(_float_tables(header, [data[order]])))


def _front_rows(path: Path, lines: list[str], width: int) -> np.ndarray:
    """(rows, width) array of a front file's body lines (the lines after
    the header), empty lines skipped, one parse for the whole body. A
    malformed body is refused with the file and the line of its first bad
    row: a row whose field count is not the header's, or that holds a cell
    that is not a number (a '#' line included)."""
    rows = [line for line in lines if line != "\n"]
    if not rows:
        return np.empty((0, width))
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        data = None
    if data is not None and data.shape[1] == width:
        return data
    for lineno, line in enumerate(lines, start=2):
        if line == "\n":
            continue
        cells = line.rstrip("\n").split(",")
        if len(cells) != width:
            why = f"{len(cells)} fields where the header has {width}"
        else:
            bad = next((c for c in cells if not _is_number(c)), None)
            if bad is None:
                continue
            why = f"{bad!r} is not a number"
        raise SystemLoadError(
            f"malformed front file {path}, line {lineno}: {why}")
    raise SystemLoadError(f"malformed front file {path}")


def _is_number(cell: str) -> bool:
    """Whether the front parser reads cell as one float."""
    if not cell.strip():
        return False
    try:
        np.loadtxt([cell], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def _read_front_csv(path: Path) -> FrontArchive:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        lines = fh.readlines()
    if header == [""]:
        raise SystemLoadError(f"front file {path} has no header")
    data = _front_rows(path, lines, len(header))
    n_obj = 2 if "emission" in header else 1
    return FrontArchive(genes=data[:, n_obj + 1:], objectives=data[:, :n_obj],
                        violations=data[:, n_obj])


def _front_file(algorithm: str, seed: int) -> str:
    """A run's front file, relative to its experiment directory."""
    return f"{algorithm}/{algorithm}_seed{seed}.csv"


def _is_plain_name(name) -> bool:
    """Whether name is a string naming a directory entry of its own."""
    return isinstance(name, str) and name not in ("", ".", "..") \
        and "/" not in name and os.sep not in name


def _load_experiment(exp_dir: Path):
    """(manifest, {algorithm: {seed: front}}, {(algorithm, seed): wall
    seconds}) of a persisted experiment: exactly the runs its manifest
    lists, each front read once from <algorithm>/<algorithm>_seed<N>.csv.
    A malformed manifest or run entry, or a listed front that is missing,
    is refused."""
    path = exp_dir / "manifest.json"
    if not path.exists():
        raise SystemLoadError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemLoadError(f"{path} is not valid JSON: {exc}") from exc
    # keys a report does not read are kept: older manifests record more
    check_section(manifest, str(path), None, ("system", "system_id", "runs"))
    if not isinstance(manifest["system"], str):
        raise SystemLoadError(f"{path}: 'system' must be a string")
    if not isinstance(manifest["runs"], list) or not manifest["runs"]:
        raise SystemLoadError(f"{path}: 'runs' must be a non-empty list")
    fronts, walls = {}, {}
    for i, entry in enumerate(manifest["runs"]):
        label = f"{path} runs[{i}]"
        check_section(entry, label, None,
                      ("algorithm", "seed", "file", "wall_time"))
        alg, seed, wall = entry["algorithm"], entry["seed"], entry["wall_time"]
        if not _is_plain_name(alg):
            raise SystemLoadError(
                f"{label}: 'algorithm' must be a plain name, not {alg!r}")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise SystemLoadError(
                f"{label}: 'seed' must be an integer, not {seed!r}")
        if isinstance(wall, bool) or not isinstance(wall, (int, float)):
            raise SystemLoadError(
                f"{label}: 'wall_time' must be a number, not {wall!r}")
        rel = _front_file(alg, seed)
        if entry["file"] != rel:
            raise SystemLoadError(
                f"{label}: file {entry['file']!r} is not {rel!r}")
        if (alg, seed) in walls:
            raise SystemLoadError(f"{label} repeats {alg} seed {seed}")
        if not (exp_dir / rel).is_file():
            raise SystemLoadError(
                f"{label}: front file not found: {exp_dir / rel}")
        fronts.setdefault(alg, {})[seed] = _read_front_csv(exp_dir / rel)
        walls[alg, seed] = wall
    return manifest, fronts, walls


# ---------------------------------------------------------------------------
# Experiment execution.
# ---------------------------------------------------------------------------

def _output_base(cfg: ExperimentConfig, base_dir=None) -> Path:
    if base_dir is not None:
        return Path(base_dir)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(env) if env else Path(cfg.output_dir)


def _workers(n_runs: int) -> int:
    """Worker processes for n_runs independent runs: one per CPU this
    process may run on, at most one per run; one where there is no fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:        # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(n_runs, cpus))


def _solve(task):
    """One seeded run, in a worker process or in the caller. Writes the
    run's front file under its experiment directory and returns (its
    manifest entry, its best cost, the warnings it raised as (category,
    text, file, line))."""
    system, ecfg, mode, exp_dir = task
    rel = _front_file(ecfg.algorithm, ecfg.rng_seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        front = engine_run(system, ecfg, mode)
        wall = time.perf_counter() - t0
        _write_front_csv(exp_dir / rel, front, system)
    entry = {"algorithm": ecfg.algorithm, "seed": ecfg.rng_seed, "file": rel,
             "front_size": len(front), "n_evaluations": front.n_evaluations,
             "wall_time": wall}
    return entry, float(front.objectives[:, 0].min()), [
        (w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _reissue(caught) -> None:
    """Issue warnings recorded by _solve as if raised where they were, so
    the caller's filters and once-per-location registries apply."""
    for category, text, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        registry = None if module is None \
            else vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(text, category, filename, lineno,
                               module=getattr(module, "__name__", None),
                               registry=registry)


def run_experiment(cfg: ExperimentConfig, base_dir=None,
                   progress=None) -> dict:
    """Run all seeded repetitions of all configured algorithms, persisting
    one front CSV per run plus a manifest; returns the manifest.

    The runs go to _workers(...) worker processes, and each writes its own
    front file. The caller takes the results in run order, so the manifest
    entries, reissued warnings and progress lines are those of a serial
    loop. wall_time is each run's own time. A manifest left by an earlier
    run is deleted first: a failed run leaves none, nor a front temp file
    of a worker stopped mid-write."""
    system = load_system(cfg.system)
    exp_dir = _output_base(cfg, base_dir) / cfg.experiment_id
    exp_dir.mkdir(parents=True, exist_ok=True)
    (exp_dir / "manifest.json").unlink(missing_ok=True)
    for ecfg in cfg.algorithms:
        (exp_dir / ecfg.algorithm).mkdir(exist_ok=True)
    tasks = [(system, replace(ecfg, rng_seed=cfg.seed_base + rep), cfg.mode,
              exp_dir)
             for ecfg in cfg.algorithms for rep in range(cfg.repetitions)]
    n_workers = _workers(len(tasks))
    pool = None
    if n_workers > 1:
        import multiprocessing    # here: importing chpdispatch skips it
        # fork: workers start with numpy, the system and the caller's module
        # state already loaded; a fresh interpreter per worker would cost a
        # sizeable share of one run
        pool = multiprocessing.get_context("fork").Pool(n_workers)
    runs = []
    try:
        results = pool.imap(_solve, tasks) if pool else map(_solve, tasks)
        for entry, best_cost, caught in results:
            _reissue(caught)
            runs.append(entry)
            if progress:
                progress(f"{entry['algorithm']} seed {entry['seed']}: "
                         f"{entry['front_size']} front points, "
                         f"best cost {best_cost:.1f}, "
                         f"{entry['wall_time']:.1f}s")
    finally:
        if pool is not None:      # no worker outlives the call
            pool.terminate()
            pool.join()
        for tmp in exp_dir.glob("*/*.csv.tmp"):   # a write cut short
            tmp.unlink()
    manifest = {
        "experiment_id": cfg.experiment_id,
        "system": cfg.system,
        "system_id": system.name,
        "mode": cfg.mode,
        "repetitions": cfg.repetitions,
        "seed_base": cfg.seed_base,
        "algorithms": [{k: v for k, v in asdict(a).items() if k in _ENTRY_KEYS}
                       for a in cfg.algorithms],
        "runs": runs,
    }
    _atomic_write(exp_dir / "manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

def _metric_rows(fronts, system_id: str):
    """hv/spread rows of every run, on the union bounds of all fronts. An
    objective with one value on every front leaves no range to normalize
    by, and is refused by name."""
    runs = [f for by_seed in fronts.values() for f in by_seed.values()]
    pts = np.vstack([f.objectives for f in runs])
    for name, lo, hi in zip(("cost", "emission"), pts.min(0), pts.max(0)):
        if lo == hi:
            raise ValueError(f"{name} is {float(lo)!r} on every front: hv "
                             f"and spread are undefined for a flat {name}")
    bounds = NormalizationBounds.from_fronts(runs)
    return [(system_id, alg, seed, hv_metric(front, bounds),
             spread_delta(front, bounds))
            for alg in sorted(fronts)
            for seed, front in sorted(fronts[alg].items())]


def _compare_rows(metric_rows):
    """Paired Wilcoxon rows over the metric rows' own hv and spread values:
    one per algorithm pair and metric with at least two shared seeds where
    both values are defined (a one-point front has no spread)."""
    scores = {}
    for _, alg, seed, *values in metric_rows:
        scores.setdefault(alg, {})[seed] = values
    out = []
    for a, b in itertools.combinations(sorted(scores), 2):
        seeds = sorted(set(scores[a]) & set(scores[b]))
        for j, metric in enumerate(("hv", "spread")):
            pairs = [(scores[a][s][j], scores[b][s][j]) for s in seeds]
            pairs = [pair for pair in pairs if None not in pair]
            if len(pairs) < 2:
                continue
            p, reject = wilcoxon_signed_rank(pairs)
            mean_a = float(np.mean([x for x, _ in pairs]))
            mean_b = float(np.mean([y for _, y in pairs]))
            out.append((a, b, metric, len(pairs), mean_a, mean_b, p, reject))
    return out


def _solution_rows(front: FrontArchive) -> dict[str, int]:
    """{solution label: front row}: best cost, and for bi-objective fronts
    best emission and the compromise."""
    objs = front.objectives
    rows = {"best_cost": int(np.argmin(objs[:, 0]))}
    if objs.shape[1] == 2:
        rows["best_emission"] = int(np.argmin(objs[:, 1]))
        rows["compromise"] = _compromise_index(objs)
    return rows


def emit_reports(exp_dir) -> list[Path]:
    """Write dispatch/report tables for a persisted experiment directory:
    report.csv, summary.csv, and (bi-objective runs) metrics.csv,
    compare.csv, and EAF polylines. Pure function of the manifest and the
    front files it lists."""
    exp_dir = Path(exp_dir)
    manifest, fronts, walls = _load_experiment(exp_dir)
    system = load_system(manifest["system"])
    two_obj = all(f.objectives.shape[1] == 2
                  for runs in fronts.values() for f in runs.values())

    report_rows, summary_rows = [], []
    for alg in sorted(fronts):
        runs = sorted(fronts[alg].items())
        for seed, front in runs:
            p, o, _, _ = system.split_genes(front.genes)
            ploss = loss_batch(p, o, system)
            for label, idx in _solution_rows(front).items():
                objs = front.objectives[idx].tolist()
                report_rows.append(
                    [alg, seed, label, objs[0], objs[1] if two_obj else None,
                     ploss[idx], front.violations[idx],
                     *front.genes[idx].tolist(), walls[alg, seed]])
        costs = np.array([f.objectives[:, 0].min() for _, f in runs])
        std = costs.std(ddof=1) if costs.shape[0] > 1 else 0.0
        best_em = min(f.objectives[:, 1].min() for _, f in runs) \
            if two_obj else None
        summary_rows.append(
            [alg, costs.shape[0], costs.min(), costs.max(), costs.mean(), std,
             best_em, np.mean([walls[alg, seed] for seed, _ in runs])])

    gene_cols = _gene_columns(system.n_power, system.n_cogen, system.n_heat)
    tables = {
        "report.csv": (["algorithm", "seed", "solution", "cost", "emission",
                        "ploss", "violation"] + gene_cols + ["wall_time_s"],
                       report_rows),
        "summary.csv": (["algorithm", "runs", "best_cost", "worst_cost",
                         "mean_cost", "std_cost", "best_emission",
                         "mean_wall_time_s"], summary_rows),
    }
    if two_obj:
        metric_rows = _metric_rows(fronts, system.name)
        tables["metrics.csv"] = (["system", "algorithm", "seed", "hv",
                                  "spread"], metric_rows)
        compare_rows = _compare_rows(metric_rows)
        if compare_rows:
            tables["compare.csv"] = (["algorithm_a", "algorithm_b", "metric",
                                      "n_pairs", "mean_a", "mean_b",
                                      "p_value", "reject"], compare_rows)
    written = [exp_dir / name for name in tables]
    for path, (header, rows) in zip(written, tables.values()):
        _atomic_write(path, _table(header, rows))
    if two_obj:
        written += _write_eaf(exp_dir, fronts)
    return written


def _write_eaf(exp_dir: Path, fronts) -> list[Path]:
    """eaf_<algorithm>_<level>.csv polylines at each of EAF_LEVELS for
    every algorithm with at least 2 runs; returns the paths written."""
    written = []
    for alg in sorted(fronts):
        if len(fronts[alg]) < 2:
            continue
        runs = [fronts[alg][s] for s in sorted(fronts[alg])]
        surfaces = eaf_surfaces(runs, EAF_LEVELS)
        order = sorted(surfaces)
        texts = _float_tables(("cost", "emission"),
                              [surfaces[level] for level in order])
        for level, text in zip(order, texts):
            path = exp_dir / f"eaf_{alg}_{int(level)}.csv"
            _atomic_write(path, text)
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = load_experiment(args.experiment)
    manifest = run_experiment(cfg, progress=print)
    exp_dir = _output_base(cfg) / cfg.experiment_id
    print(f"{len(manifest['runs'])} run(s) written under {exp_dir}")
    return 0


def _cmd_report(args) -> int:
    for path in emit_reports(args.run_dir):
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

    p = sub.add_parser("report", help="emit all report tables for a run dir")
    p.add_argument("run_dir", help="experiment output directory")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SystemLoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
