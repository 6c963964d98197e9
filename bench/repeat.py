"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/repeat.py --workload s3-idbea --seeds 1-10 [--seconds 40]
        [--trace 0] [--checkout DIR ...]

Each seed runs ``bench/run_bench.py`` once in every checkout given (default:
this one), alternating which checkout goes first from one seed to the next,
so two commits exported side by side (``git archive``) share the machine's
drift. For every checkout and metric it prints the median, the quartiles
and the interquartile distance as a share of the median (the figure the
bounds in BENCHMARK.json are compared with). Each run's result line and
standard error (which carries its unscaled wall times) are appended to
``.bench_runs/repeat.jsonl`` in this checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload, seed, seconds, trace):
    """(result object, standard error lines) of one benchmark run."""
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed} failed:\n{out.stderr}")
    return (json.loads(out.stdout.strip().splitlines()[-1]),
            out.stderr.strip().splitlines())


def summarize(results: list[dict]) -> None:
    fails = {(r["failed"], r["attempted"]) for r in results}
    print(f"  correct: {all(r['correct'] for r in results)}, "
          f"failed/attempted: {sorted(fails)}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in vals):
            print(f"  {name:34s} missing")
            continue
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / abs(med) if med else float("nan")
        print(f"  {name:34s} median {med:<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} iqr/median {share:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--checkout", action="append", type=Path)
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    results = {c: [] for c in checkouts}
    (ROOT / ".bench_runs").mkdir(exist_ok=True)
    with open(ROOT / ".bench_runs" / "repeat.jsonl", "a") as log:
        for k, seed in enumerate(parse_seeds(args.seeds)):
            order = checkouts if k % 2 == 0 else checkouts[::-1]
            for c in order:
                res, stderr = run_once(c, args.workload, seed,
                                       args.seconds, args.trace)
                results[c].append(res)
                log.write(json.dumps({"checkout": str(c),
                                      "workload": args.workload,
                                      "seed": seed, "result": res,
                                      "stderr": stderr}) + "\n")
                log.flush()
    for c in checkouts:
        print(f"{c} {args.workload} ({len(results[c])} runs)")
        summarize(results[c])
    return 0


if __name__ == "__main__":
    sys.exit(main())
