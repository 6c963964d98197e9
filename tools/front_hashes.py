"""Print one sha256 per (system, algorithm, seed, mode) over a run's final
front.

    python3 tools/front_hashes.py [CHECKOUT] [--algorithms IDBEA,IBEA,NSGA2]

Imports ``chpdispatch`` from ``CHECKOUT/src`` (default: the checkout this
script lives in), runs each algorithm on system1-3 with seeds 1 and 2 in
both modes (``chped`` and ``chpeed``) and the default engine settings
(N = 200, 25,000 evaluations), and hashes the front's genes, objectives
and violations, shapes included. Two checkouts whose output lines are
equal produced byte-identical fronts.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def front_digest(front) -> str:
    h = hashlib.sha256()
    for arr in (front.genes, front.objectives, front.violations):
        h.update(repr(arr.shape).encode())
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--algorithms", default="IDBEA,IBEA,NSGA2")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "chpdispatch").is_dir():
        parser.error(f"no chpdispatch package under {src}")
    sys.path.insert(0, str(src))
    from chpdispatch import EngineConfig, load_system, run

    for name in ("system1", "system2", "system3"):
        system = load_system(name)
        for algorithm in args.algorithms.split(","):
            for seed in (1, 2):
                cfg = EngineConfig(rng_seed=seed, algorithm=algorithm)
                for mode in ("chped", "chpeed"):
                    front = run(system, cfg, mode=mode)
                    print(f"{name} {algorithm} seed{seed} {mode:6s} "
                          f"{len(front):4d} {front_digest(front)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
