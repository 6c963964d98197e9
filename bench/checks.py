"""Independent checks of what the benchmark's workloads write.

Nothing here imports chpdispatch. Dispatch cost, emission and loss are
evaluated from the system JSON file with plain Python loops, and the report
tables are recomputed from the front CSV files with this module's own
hypervolume sweep, spread formula, sign-flip enumeration and attainment
counts. Every check returns a list of problems; an empty list is a pass.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

REL_OBJECTIVE_TOL = 1e-9      # stored cost/emission against this evaluator
BALANCE_TOL = 1e-6            # MW / MWth
BOX_TOL = 1e-9                # gene box, MW / MWth
REGION_TOL = 1e-6             # half-plane slack, MW / MWth
REL_METRIC_TOL = 1e-9         # metrics.csv hv/spread against this module
HV_REF = 1.1

# Published extremes with the acceptance suite's slack: (max of the front's
# minimum cost in $/h, max of the front's minimum emission in kg/h).
PUBLISHED_EXTREMES = {
    "system2": (14050.0, 1.35),
    "system3": (10400.0, 8.1),
}


class SystemSpec:
    """Coefficients of one bundled system, read straight from its JSON."""

    def __init__(self, path):
        data = json.loads(Path(path).read_text())
        self.power = data.get("power_units", [])
        self.cogen = data.get("cogen_units", [])
        self.heat = data.get("heat_units", [])
        self.power_demand = float(data["demand"]["power"])
        self.heat_demand = float(data["demand"]["heat"])
        loss = data.get("loss") or {}
        if loss.get("enabled", False):
            sb = float(loss.get("scale_b", 1.0))
            sb0 = float(loss.get("scale_b0", 1.0))
            self.b = [[float(v) * sb for v in row] for row in loss["b"]]
            self.b0 = [float(v) * sb0 for v in loss["b0"]]
            self.b00 = float(loss["b00"])
        else:
            self.b = None
        self.n_power, self.n_cogen = len(self.power), len(self.cogen)
        self.n_genes = self.n_power + 2 * self.n_cogen + len(self.heat)

    def split(self, genes):
        n_p, n_c = self.n_power, self.n_cogen
        return (list(genes[:n_p]), list(genes[n_p:n_p + n_c]),
                list(genes[n_p + n_c:n_p + 2 * n_c]),
                list(genes[n_p + 2 * n_c:]))

    def cost(self, genes) -> float:
        p, o, h, t = self.split(genes)
        total = 0.0
        for u, x in zip(self.power, p):
            total += (u.get("cost_const", 0.0) + u.get("cost_linear", 0.0) * x
                      + u.get("cost_quad", 0.0) * x * x
                      + u.get("cost_cubic", 0.0) * x ** 3
                      + abs(u.get("valve_amp", 0.0)
                            * math.sin(u.get("valve_freq", 0.0)
                                       * (u["p_min"] - x))))
        for u, x, y in zip(self.cogen, o, h):
            total += (u.get("cost_const", 0.0) + u.get("cost_p_linear", 0.0) * x
                      + u.get("cost_p_quad", 0.0) * x * x
                      + u.get("cost_h_linear", 0.0) * y
                      + u.get("cost_h_quad", 0.0) * y * y
                      + u.get("cost_cross", 0.0) * x * y)
        for u, x in zip(self.heat, t):
            total += (u.get("cost_const", 0.0) + u.get("cost_linear", 0.0) * x
                      + u.get("cost_quad", 0.0) * x * x)
        return total

    def emission(self, genes) -> float:
        p, o, _, t = self.split(genes)
        total = 0.0
        for u, x in zip(self.power, p):
            total += (u.get("em_const", 0.0) + u.get("em_linear", 0.0) * x
                      + u.get("em_quad", 0.0) * x * x
                      + u.get("em_exp_coeff", 0.0)
                      * math.exp(u.get("em_exp_rate", 0.0) * x)
                      + u.get("co2_linear", 0.0) * x)
        for u, x in zip(self.cogen, o):
            total += (u.get("em_linear", 0.0) + u.get("co2_linear", 0.0)) * x
        for u, x in zip(self.heat, t):
            total += (u.get("em_linear", 0.0) + u.get("co2_linear", 0.0)) * x
        return total

    def loss(self, genes) -> float:
        """B-coefficient loss; the power-only x cogeneration cross block is
        counted once, as the bundled coefficient tables define it."""
        if self.b is None:
            return 0.0
        p, o, _, _ = self.split(genes)
        g = p + o
        n_p = self.n_power
        total = 0.0
        for i, x in enumerate(g):
            for j, y in enumerate(g):
                if i >= n_p and j < n_p:
                    continue        # the cross block enters once, as p.B.o
                total += x * self.b[i][j] * y
        total += sum(c * x for c, x in zip(self.b0, g))
        return total + self.b00

    def box(self):
        """(lower, upper) per gene; cogeneration genes use the bounding box
        of the operating region."""
        lo, hi = [], []
        for u in self.power:
            lo.append(u["p_min"])
            hi.append(u["p_max"])
        for axis in (0, 1):
            for u in self.cogen:
                vals = [v[axis] for v in u["region"]]
                lo.append(min(vals))
                hi.append(max(vals))
        for u in self.heat:
            lo.append(u["h_min"])
            hi.append(u["h_max"])
        return lo, hi


def outside_region(vertices, x, y, tol=REGION_TOL) -> bool:
    """Half-plane test on a counter-clockwise convex polygon: a point is
    inside when it lies left of (or within tol of) every edge."""
    n = len(vertices)
    for k in range(n):
        ax, ay = vertices[k]
        bx, by = vertices[(k + 1) % n]
        ex, ey = bx - ax, by - ay
        if ex * (y - ay) - ey * (x - ax) < -tol * math.hypot(ex, ey):
            return True
    return False


# ---------------------------------------------------------------------------
# CSV reading.
# ---------------------------------------------------------------------------

def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [r for r in rows[1:] if r]


def read_front(path):
    """(objectives (n, 2), violations (n,), genes (n, g)) of a front CSV."""
    header, rows = read_table(path)
    if header[:3] != ["cost", "emission", "violation"]:
        raise ValueError(f"{path}: unexpected header {header[:3]}")
    data = np.array([[float(v) for v in r] for r in rows], float)
    data = data.reshape(len(rows), len(header))
    return data[:, :2], data[:, 2], data[:, 3:]


# ---------------------------------------------------------------------------
# Fronts.
# ---------------------------------------------------------------------------

def dominated_rows(objs) -> list[int]:
    """Rows some other row weakly dominates with at least one strict gain."""
    objs = np.asarray(objs, float)
    le = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
    lt = np.any(objs[:, None, :] < objs[None, :, :], axis=2)
    return np.flatnonzero((le & lt).any(axis=0)).tolist()


def check_front(path, spec: SystemSpec, extremes=None) -> list[str]:
    """Problems with one persisted front: objectives against this module's
    evaluator, balances, boxes, regions, mutual non-dominance, duplicate
    genes and, when given, the published (cost, emission) extremes."""
    name = Path(path).name
    try:
        objs, _, genes = read_front(path)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable ({exc})"]
    if objs.shape[0] == 0:
        return [f"{name}: empty front"]
    if genes.shape[1] != spec.n_genes:
        return [f"{name}: {genes.shape[1]} gene columns, system has "
                f"{spec.n_genes}"]
    problems = []
    lo, hi = spec.box()
    n_p, n_c = spec.n_power, spec.n_cogen
    for i, row in enumerate(genes.tolist()):
        cost, em = spec.cost(row), spec.emission(row)
        if abs(objs[i, 0] - cost) > REL_OBJECTIVE_TOL * abs(cost):
            problems.append(f"{name} row {i}: cost {objs[i, 0]!r} != {cost!r}")
        if abs(objs[i, 1] - em) > REL_OBJECTIVE_TOL * abs(em):
            problems.append(f"{name} row {i}: emission {objs[i, 1]!r} != "
                            f"{em!r}")
        p, o, h, t = spec.split(row)
        p_res = sum(p) + sum(o) - spec.power_demand - spec.loss(row)
        h_res = sum(h) + sum(t) - spec.heat_demand
        if abs(p_res) > BALANCE_TOL:
            problems.append(f"{name} row {i}: power balance off by {p_res:.3g}")
        if abs(h_res) > BALANCE_TOL:
            problems.append(f"{name} row {i}: heat balance off by {h_res:.3g}")
        for k, x in enumerate(row):
            if not lo[k] - BOX_TOL <= x <= hi[k] + BOX_TOL:
                problems.append(f"{name} row {i}: gene {k} = {x!r} outside "
                                f"[{lo[k]}, {hi[k]}]")
        for j, u in enumerate(spec.cogen):
            if outside_region(u["region"], row[n_p + j], row[n_p + n_c + j]):
                problems.append(f"{name} row {i}: cogeneration unit {j} "
                                f"outside its region")
    for i in dominated_rows(objs):
        problems.append(f"{name} row {i}: dominated by another front row")
    if np.unique(genes, axis=0).shape[0] != genes.shape[0]:
        problems.append(f"{name}: duplicate gene rows")
    if extremes is not None:
        max_cost, max_em = extremes
        if objs[:, 0].min() > max_cost:
            problems.append(f"{name}: min cost {objs[:, 0].min():.2f} above "
                            f"{max_cost}")
        if objs[:, 1].min() > max_em:
            problems.append(f"{name}: min emission {objs[:, 1].min():.4f} "
                            f"above {max_em}")
    return problems


# ---------------------------------------------------------------------------
# Front quality, this module's own formulas.
# ---------------------------------------------------------------------------

def normalize(objs, lower, upper):
    lower, upper = np.asarray(lower, float), np.asarray(upper, float)
    return (np.asarray(objs, float) - lower) / (upper - lower)


def hypervolume(norm, ref=HV_REF) -> float:
    """Area dominated by normalized 2-D points inside [.., ref]^2."""
    pts = sorted((float(x), float(y)) for x, y in norm if x < ref and y < ref)
    area, prev_y = 0.0, ref
    for x, y in pts:
        if y < prev_y:
            area += (ref - x) * (prev_y - y)
            prev_y = y
    return area


def spread(norm):
    """Spread Delta of normalized points: consecutive gaps after sorting by
    the first objective, plus the distances of the two end points to the
    corners (0, 1) and (1, 0). None for fewer than two points."""
    pts = sorted((float(x), float(y)) for x, y in norm)
    if len(pts) < 2:
        return None
    gaps = [math.dist(a, b) for a, b in zip(pts, pts[1:])]
    mean = sum(gaps) / len(gaps)
    d_f = math.dist(pts[0], (0.0, 1.0))
    d_l = math.dist(pts[-1], (1.0, 0.0))
    denom = d_f + d_l + len(gaps) * mean
    if denom == 0.0:
        return 0.0
    return (d_f + d_l + sum(abs(g - mean) for g in gaps)) / denom


def report_hv(objs, lower, upper) -> float:
    """hv as the report tables define it: points outside the unit box after
    normalization are left out."""
    norm = normalize(objs, lower, upper)
    inside = np.all((norm >= 0.0) & (norm <= 1.0), axis=1)
    return hypervolume(norm[inside])


def signflip_p_value(diffs) -> float:
    """Two-sided Wilcoxon signed-rank p-value by enumerating every sign
    assignment of the ranked non-zero differences (average ranks on ties)."""
    d = [x for x in diffs if x != 0.0]
    n = len(d)
    if n == 0:
        return 1.0
    mags = sorted(abs(x) for x in d)
    rank_of = {}
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[j + 1] == mags[i]:
            j += 1
        rank_of[mags[i]] = (i + j) / 2.0 + 1.0
        i = j + 1
    ranks = [rank_of[abs(x)] for x in d]
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)
    w_small = min(w_plus, sum(ranks) - w_plus)
    hits = sum(1 for signs in itertools.product((0, 1), repeat=n)
               if sum(r for r, s in zip(ranks, signs) if s) <= w_small + 1e-9)
    return min(1.0, 2.0 * hits / 2 ** n)


# ---------------------------------------------------------------------------
# Report tables.
# ---------------------------------------------------------------------------

def discover_fronts(exp_dir):
    """{algorithm: {seed: path}} of the front CSVs under exp_dir."""
    found = {}
    for alg_dir in sorted(p for p in Path(exp_dir).iterdir() if p.is_dir()):
        for f in sorted(alg_dir.glob(f"{alg_dir.name}_seed*.csv")):
            found.setdefault(alg_dir.name, {})[
                int(f.stem.rsplit("seed", 1)[1])] = f
    return found


def _score(metric, objs, lower, upper):
    """hv or spread of one front as the report tables define them."""
    if metric == "hv":
        return report_hv(objs, lower, upper)
    return spread(normalize(objs, lower, upper))


def _close(got, want, rel=REL_METRIC_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def check_reports(exp_dir) -> list[str]:
    """Problems with the report tables of a bi-objective experiment."""
    exp_dir = Path(exp_dir)
    found = discover_fronts(exp_dir)
    objs = {(a, s): read_front(p)[0]
            for a, runs in found.items() for s, p in runs.items()}
    if not objs:
        return [f"{exp_dir}: no front files"]
    problems = []

    # summary.csv: best cost is the least cost over each algorithm's fronts.
    header, rows = read_table(exp_dir / "summary.csv")
    col = header.index("best_cost")
    best = {r[0]: float(r[col]) for r in rows}
    for alg, runs in found.items():
        want = min(objs[(alg, s)][:, 0].min() for s in runs)
        if best.get(alg) != want:
            problems.append(f"summary.csv {alg}: best cost {best.get(alg)!r} "
                            f"!= {want!r}")

    # metrics.csv: hv and spread on the union bounds of every front.
    union = np.vstack(list(objs.values()))
    lower, upper = union.min(axis=0), union.max(axis=0)
    header, rows = read_table(exp_dir / "metrics.csv")
    seen = set()
    for r in rows:
        rec = dict(zip(header, r))
        key = (rec["algorithm"], int(rec["seed"]))
        seen.add(key)
        if key not in objs:
            problems.append(f"metrics.csv: row for unknown run {key}")
            continue
        hv = _score("hv", objs[key], lower, upper)
        if not _close(float(rec["hv"]), hv):
            problems.append(f"metrics.csv {key}: hv {rec['hv']} != {hv!r}")
        sp = _score("spread", objs[key], lower, upper)
        got = float(rec["spread"]) if rec["spread"] else None
        if (got is None) != (sp is None) or (sp is not None
                                             and not _close(got, sp)):
            problems.append(f"metrics.csv {key}: spread {rec['spread']} != "
                            f"{sp!r}")
    if seen != set(objs):
        problems.append(f"metrics.csv: runs {sorted(set(objs) - seen)} "
                        f"missing")

    # compare.csv: each pair's p-value against the sign-flip enumeration.
    path = exp_dir / "compare.csv"
    pairs = [(a, b) for a, b in itertools.combinations(sorted(found), 2)
             if len(set(found[a]) & set(found[b])) >= 2]
    if pairs and not path.exists():
        problems.append("compare.csv missing")
    if path.exists():
        header, rows = read_table(path)
        for r in rows:
            rec = dict(zip(header, r))
            a, b = rec["algorithm_a"], rec["algorithm_b"]
            seeds = sorted(set(found.get(a, {})) & set(found.get(b, {})))
            if len(seeds) > 20:
                problems.append(f"compare.csv {a}/{b}: {len(seeds)} pairs, "
                                f"too many to enumerate")
                continue
            fronts = [objs[(a, s)] for s in seeds] + [objs[(b, s)]
                                                      for s in seeds]
            stacked = np.vstack(fronts)
            lo, hi = stacked.min(axis=0), stacked.max(axis=0)
            diffs = [_score(rec["metric"], objs[(a, s)], lo, hi)
                     - _score(rec["metric"], objs[(b, s)], lo, hi)
                     for s in seeds]
            want = signflip_p_value(diffs)
            if float(rec["p_value"]) != want:
                problems.append(f"compare.csv {a}/{b} {rec['metric']}: p "
                                f"{rec['p_value']} != {want!r}")

    # eaf_<alg>_<level>.csv: every point attained by enough runs.
    for alg, runs in found.items():
        fronts = [objs[(alg, s)] for s in sorted(runs)]
        for path in sorted(exp_dir.glob(f"eaf_{alg}_*.csv")):
            level = float(path.stem.rsplit("_", 1)[1])
            need = math.ceil(level * len(fronts) / 100.0)
            _, rows = read_table(path)
            for x, y in ((float(r[0]), float(r[1])) for r in rows):
                hit = sum(bool(np.any((f[:, 0] <= x) & (f[:, 1] <= y)))
                          for f in fronts)
                if hit < need:
                    problems.append(f"{path.name}: ({x!r}, {y!r}) attained by "
                                    f"{hit} of {len(fronts)} runs, needs "
                                    f"{need}")
                    break
    return problems
