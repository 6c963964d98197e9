"""chpdispatch benchmark: seeded solves through the experiment runner and
report passes over what they wrote, with independent output checks.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload s3-idbea --seed 1 --seconds 40 --trace 0

The program is driven only through its Python API: ``load_system``,
``run_experiment`` (the ``chpdispatch run`` path, front CSVs included) and
``emit_reports`` (the ``chpdispatch report`` path). Each solve round is
followed by report passes over the first round's experiment directory, in
the workload's proportion, until ``--seconds`` is used. ``checks.py``
checks every solver front and every report table. The last line of
standard output is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics (from ``tracing.py``) with ``--trace 1``. README.md in
this directory describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# numpy, chpdispatch and the modules beside this file that use them are
# imported inside functions: the thread pins must be in the environment
# before numpy loads, and the set-up probe times those imports.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

PAPER_BUDGET = 25000
SETUP_PROBES = 5
MIN_REPORT_PASSES = 5
# Times are reported in reference seconds: wall seconds scaled by
# REFERENCE_S / (median time of reference_kernel over the run). Machine
# speed drifts (2x within an hour on the machine README.md names); the
# kernel is sampled all through the run to measure it. REFERENCE_S sets
# the unit: about the kernel's time on the machine README.md names.
REFERENCE_S = 3.4e-3
SPEED_SAMPLE_EVERY_S = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    system: str
    algorithms: tuple[str, ...]
    repetitions: int            # seeds per solve round, shared by algorithms
    max_evaluations: int
    solve_share: float          # share of --seconds spent in solve rounds


WORKLOADS = {
    "s3-idbea": Workload("system3", ("IDBEA",), 2, PAPER_BUDGET, 0.8),
    "s2-nsga2": Workload("system2", ("NSGA2",), 3, PAPER_BUDGET, 0.8),
    "s2-report": Workload("system2", ("IDBEA", "IBEA"), 10, 2000, 0.5),
}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "report_s": "s",
                    "front_hv": "1", "front_spread": "1", "peak_rss_mb": "MB"}

# Fixed (lower, upper) objective bounds for front_hv and front_spread, so a
# front's score does not move with the other fronts of the run.
FIXED_BOUNDS = {
    "system2": ((13600.0, 1.1), (17200.0, 12.2)),
    "system3": ((10000.0, 7.0), (18000.0, 29.0)),
}

# Per-layer metrics: name -> (unit, phase, source), where source is a span
# key or counter of tracing.py. Times are self times; see layer_metrics.
PER_LAYER = {
    "engine.select_s": ("s", "solve", "engine.select"),
    "engine.indicator_s": ("s", "solve", "engine.indicator"),
    "engine.crowding_s": ("s", "solve", "engine.crowding"),
    "engine.nds_s": ("s", "solve", "engine.nds"),
    "engine.variation_s": ("s", "solve", "engine.variation"),
    "engine.generations": ("count", "solve", "engine.generations"),
    "constraints.evaluate_s": ("s", "solve", "constraints.evaluate"),
    "constraints.repair_s": ("s", "solve", "constraints.repair"),
    "constraints.power_balance_s": ("s", "solve", "constraints.power_balance"),
    "constraints.heat_balance_s": ("s", "solve", "constraints.heat_balance"),
    "constraints.rows": ("count", "solve", "constraints.rows"),
    "constraints.loss_calls": ("count", "solve", "constraints.loss_calls"),
    "constraints.feasible_ratio": ("1", "solve", "constraints.feasible_rows"),
    "constraints.fixed_point_warnings": ("count", "solve",
                                         "constraints.fixed_point_warnings"),
    "model.loss_s": ("s", "solve", "model.loss"),
    "model.objectives_s": ("s", "solve", "model.objectives"),
    "geometry.project_s": ("s", "solve", "geometry.project"),
    "geometry.project_rows": ("count", "solve", "geometry.project_rows"),
    "cli.write_s": ("s", "solve", "cli.write"),
    "metrics.hv_s": ("s", "report", "metrics.hv"),
    "metrics.spread_s": ("s", "report", "metrics.spread"),
    "metrics.eaf_s": ("s", "report", "metrics.eaf"),
    "metrics.wilcoxon_s": ("s", "report", "metrics.wilcoxon"),
    "cli.read_s": ("s", "report", "cli.read"),
    "cli.front_reads": ("count", "report", "cli.front_reads"),
    "cli.report_self_s": ("s", "report", "cli.report"),
}


def experiment(name: str, seed: int, round_no: int):
    """Experiment config of one solve round; its seeds come from --seed."""
    from chpdispatch import EngineConfig, ExperimentConfig

    w = WORKLOADS[name]
    return ExperimentConfig(
        experiment_id=f"{name}-r{round_no}",
        system=w.system,
        algorithms=tuple(EngineConfig(algorithm=a,
                                      max_evaluations=w.max_evaluations)
                         for a in w.algorithms),
        mode="chpeed",
        repetitions=w.repetitions,
        seed_base=1 + 1000 * seed + round_no * w.repetitions,
    )


def build_setup(name: str, seed: int) -> None:
    """What setup_s times: the imports, load_system and the first config."""
    import chpdispatch

    where = Path(chpdispatch.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"chpdispatch imported from {where}, not from {SRC}")
    chpdispatch.load_system(WORKLOADS[name].system)
    experiment(name, seed, 0)


_PROBE = """import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import run_bench
run_bench.build_setup({name!r}, {seed!r})
print(repr(time.perf_counter() - t0))
"""


def probe_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (interpreter start-up
    itself excluded)."""
    code = _PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def reference_kernel() -> float:
    """Wall time of a fixed piece of work shaped like the program's hot
    paths: per-pair crossover on small arrays, (400, 400) float and boolean
    pairwise matrices as in indicator selection and sorting, and float
    formatting and parsing as in the front CSVs. It never calls
    chpdispatch, so a change to the program cannot move it."""
    import numpy as np

    rng = np.random.default_rng(12345)
    pop = rng.random((200, 8))
    objs = rng.random((400, 2))
    t0 = perf_counter()
    for k in range(0, 200, 2):
        u = rng.random(8)
        beta = np.where(u <= 0.5, (2.0 * u) ** (1 / 21),
                        (1.0 / (2.0 * (1.0 - u))) ** (1 / 21))
        np.clip(0.5 * ((1.0 + beta) * pop[k] + (1.0 - beta) * pop[k + 1]),
                0.0, 1.0)
    overlap = np.ones((400, 400))
    weak = np.ones((400, 400), dtype=bool)
    for col in objs.T:
        overlap *= 1.1 - np.maximum(col[:, None], col[None, :])
        weak &= col[:, None] <= col[None, :]
    overlap.sum(axis=0)
    text = "\n".join(",".join(repr(float(v)) for v in row)
                     for row in pop[:100])
    sum(float(v) for line in text.split("\n") for v in line.split(","))
    return perf_counter() - t0


class Bench:
    """One benchmark run: solve rounds, report passes over the first round's
    experiment directory, their timings, and what the checks found."""

    def __init__(self, name: str, seed: int, work: Path, tracer):
        import checks

        self.name, self.seed, self.work, self.tracer = name, seed, work, tracer
        w = WORKLOADS[name]
        self.spec = checks.SystemSpec(SRC / "chpdispatch" / "data"
                                      / f"{w.system}.json")
        self.extremes = checks.PUBLISHED_EXTREMES.get(w.system) \
            if w.max_evaluations == PAPER_BUDGET else None
        self.bounds = FIXED_BOUNDS[w.system]
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.rounds = self.n_runs = 0
        self.solve_total = 0.0
        self.hvs: list[float] = []
        self.spreads: list[float] = []
        self.report_times: list[float] = []
        self.kernel_times: list[float] = []
        self._last_sample = float("-inf")
        self._first_report = None
        self._first_report_ok = False

    def sample_speed(self, force=False):
        """Time the reference kernel (median of 3) if the last sample is
        older than SPEED_SAMPLE_EVERY_S, or when forced."""
        if force or perf_counter() - self._last_sample >= SPEED_SAMPLE_EVERY_S:
            self.kernel_times.append(
                statistics.median(reference_kernel() for _ in range(3)))
            self._last_sample = perf_counter()

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over this run."""
        return REFERENCE_S / statistics.median(self.kernel_times)

    def solve_s(self) -> float:
        return self.solve_total / self.n_runs * self.scale

    def report_s(self) -> float:
        return statistics.median(self.report_times) * self.scale

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def solve_round(self) -> float:
        """One run_experiment call over the round's seeds; each front is
        checked and scored on the fixed bounds. Returns its wall time."""
        import checks
        import chpdispatch.cli as cli

        cfg = experiment(self.name, self.seed, self.rounds)
        self.sample_speed(force=True)
        if self.tracer is not None:
            # The first round's seeds depend on --seed alone, so counts
            # taken from it repeat exactly for a given seed.
            self.tracer.phase("first solve" if self.rounds == 0 else "solve")
        self.rounds += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                cli.run_experiment(cfg, base_dir=self.work)
                error = None
            except Exception:     # one failed round; the run carries on
                error = traceback.format_exc()
            dt = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.record_warnings(caught)
        self.sample_speed(force=True)
        self.solve_total += dt
        lower, upper = self.bounds
        for ecfg in cfg.algorithms:
            for s in range(cfg.seed_base, cfg.seed_base + cfg.repetitions):
                self.n_runs += 1
                path = self.work / cfg.experiment_id / ecfg.algorithm \
                    / f"{ecfg.algorithm}_seed{s}.csv"
                if error is not None:
                    self.record([f"{path.name}: {error}"])
                    continue
                self.record(checks.check_front(path, self.spec, self.extremes))
                try:
                    objs = checks.read_front(path)[0]
                except (OSError, ValueError):
                    continue      # already recorded by check_front
                norm = checks.normalize(objs, lower, upper)
                self.hvs.append(checks.hypervolume(norm))
                self.spreads.append(checks.spread(norm))
        return dt

    def report_pass(self):
        """One emit_reports pass over the first round's directory. The
        first pass is checked in full; later ones must write the same
        bytes."""
        import checks
        import chpdispatch.cli as cli

        exp_dir = self.work / experiment(self.name, self.seed, 0).experiment_id
        self.sample_speed()
        if self.tracer is not None:
            self.tracer.phase("report")
        t0 = perf_counter()
        try:
            written = cli.emit_reports(exp_dir)
        except Exception:         # one failed pass; the run carries on
            self.report_times.append(perf_counter() - t0)
            self.record([f"emit_reports: {traceback.format_exc()}"])
            return
        self.report_times.append(perf_counter() - t0)
        snapshot = {p.name: p.read_bytes() for p in written}
        if self._first_report is None:
            problems = checks.check_reports(exp_dir)
            self._first_report, self._first_report_ok = snapshot, not problems
        elif snapshot != self._first_report:
            problems = ["report files differ from the first pass"]
        else:
            problems = [] if self._first_report_ok else ["first report pass failed"]
        self.record(problems)

    def report_until(self, deadline: float, min_passes: int = 1):
        n = 0
        while n < min_passes or perf_counter() < deadline:
            self.report_pass()
            n += 1

    def measure(self, seconds: int):
        """Solve rounds while the workload's share of the run is open, each
        followed by report passes for the rest of its share, then report
        passes to the end; both samples span the whole run."""
        share = WORKLOADS[self.name].solve_share
        start = perf_counter()
        while True:
            dt = self.solve_round()
            if self.solve_total + dt > share * seconds:
                break
            self.report_until(perf_counter() + dt * (1.0 - share) / share)
        self.report_until(start + seconds, MIN_REPORT_PASSES)


def layer_metrics(bench: Bench) -> dict:
    """Per-layer metrics from the tracer's buckets. Solve-side times are per
    solver run over the whole run, solve-side counts per solver run of the
    first round, report-side values per report pass."""
    buckets = bench.tracer.buckets
    empty = (defaultdict(float), Counter())
    first_self, first_counts = buckets.get("first solve", empty)
    rest_self, _ = buckets.get("solve", empty)
    report_self, report_counts = buckets.get("report", empty)
    first_runs = experiment(bench.name, bench.seed, 0).repetitions \
        * len(WORKLOADS[bench.name].algorithms)
    out = {}
    for name, (unit, phase, source) in PER_LAYER.items():
        if source not in bench.tracer.sources:
            print(f"warning: {name} is missing: nothing supplies {source}",
                  file=sys.stderr)
            out[name] = {"value": None, "unit": unit, "missing": True}
            continue
        if phase == "report":
            total = report_self[source] * bench.scale if unit == "s" \
                else report_counts[source]
            value = total / len(bench.report_times)
        elif unit == "s":
            value = (first_self[source] + rest_self[source]) * bench.scale \
                / bench.n_runs
        elif name == "constraints.feasible_ratio":
            rows = first_counts["constraints.rows"]
            value = first_counts[source] / rows if rows else 0.0
        else:
            value = first_counts[source] / first_runs
        out[name] = {"value": value, "unit": unit}
    out["trace.solve_s"] = {"value": bench.solve_s(), "unit": "s"}
    out["trace.report_s"] = {"value": bench.report_s(), "unit": "s"}
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from tracing import Tracer

    setup_s = None if trace else probe_setup(name, seed)
    build_setup(name, seed)
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS))
    bench = Bench(name, seed, work, Tracer() if trace else None)
    try:
        if bench.tracer is not None:
            bench.tracer.install()
        bench.measure(seconds)
    finally:
        if bench.tracer is not None:
            bench.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for line in bench.problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"wall seconds: solve {bench.solve_total / bench.n_runs:.4f}, "
          f"report {statistics.median(bench.report_times):.5f}"
          + ("" if setup_s is None else f", setup {setup_s:.4f}")
          + f"; reference kernel {statistics.median(bench.kernel_times):.6f}"
          f" s over {len(bench.kernel_times)} samples, scale "
          f"{bench.scale:.4f}", file=sys.stderr)
    if bench.tracer is not None:
        metrics = layer_metrics(bench)
    else:
        spreads = [s for s in bench.spreads if s is not None]
        metrics = {
            "setup_s": setup_s * bench.scale,
            "solve_s": bench.solve_s(),
            "report_s": bench.report_s(),
            "front_hv": statistics.fmean(bench.hvs) if bench.hvs
            else float("nan"),
            "front_spread": statistics.fmean(spreads) if spreads
            else float("nan"),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
    return {"correct": not bench.problems, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chpdispatch" / "__init__.py").is_file():
        print(f"error: no chpdispatch sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
