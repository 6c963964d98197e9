"""Print one sha256 per file that a few small experiments and their report
pass write.

    python3 tools/report_hashes.py [CHECKOUT] [--large]

Imports ``chpdispatch`` from ``CHECKOUT/src`` (default: the checkout this
script lives in) and runs three experiments into a temporary directory, all
at N = 40 and 800 evaluations with seeds 1-3: system2 with IDBEA, IBEA and
NSGA2, system3 with IDBEA, and system1 with IDBEA in ``chped`` mode. It sets
every manifest ``wall_time`` to 0.0, the only measured value in the files,
runs ``emit_reports`` on each experiment and prints ``path sha256`` lines
sorted by path. Two checkouts whose output lines are equal wrote
byte-identical fronts, manifests and report files.

``--large`` adds the shape of the benchmark's report workload: system2
with IDBEA and IBEA at N = 200 and 2,000 evaluations, seeds 1001-1010,
whose EAF files hold about 1,900 rows each.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

SMALL = dict(population_size=40, max_evaluations=800)
LARGE = dict(population_size=200, max_evaluations=2000)
# (experiment id, system, mode, algorithms, engine settings, repetitions,
# first seed)
EXPERIMENTS = [
    ("s2", "system2", "chpeed", ("IDBEA", "IBEA", "NSGA2"), SMALL, 3, 1),
    ("s3", "system3", "chpeed", ("IDBEA",), SMALL, 3, 1),
    ("s1", "system1", "chped", ("IDBEA",), SMALL, 3, 1),
]
LARGE_EXPERIMENT = ("s2-large", "system2", "chpeed", ("IDBEA", "IBEA"),
                    LARGE, 10, 1001)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--large", action="store_true",
                        help="also run a system2 experiment of the "
                             "benchmark's report size")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "chpdispatch").is_dir():
        parser.error(f"no chpdispatch package under {src}")
    sys.path.insert(0, str(src))
    from chpdispatch import (EngineConfig, ExperimentConfig, emit_reports,
                             run_experiment)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        experiments = EXPERIMENTS + ([LARGE_EXPERIMENT] if args.large else [])
        for exp_id, system, mode, algorithms, settings, reps, seed_base \
                in experiments:
            cfg = ExperimentConfig(
                experiment_id=exp_id, system=system, mode=mode,
                algorithms=tuple(EngineConfig(algorithm=a, **settings)
                                 for a in algorithms),
                repetitions=reps, seed_base=seed_base)
            run_experiment(cfg, base_dir=root)
            manifest_path = root / exp_id / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            for entry in manifest["runs"]:
                entry["wall_time"] = 0.0
            manifest_path.write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            emit_reports(root / exp_id)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{path.relative_to(root)} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
