"""Evolutionary core: indicator-based selection with a crowding-distance
stage, plus an NSGA-II baseline.

Three algorithm tags share one machinery set. IDBEA selects in two stages
each generation: indicator-based environmental selection reduces the merged
parent/offspring pool to N / archive_keep_fraction rows, rounded up (250
for the default N=200, fraction 0.8), and a crowding-distance stage keeps
the most spread-out N of those (four fifths by default). The crowding stage
drops the worst-ranked constraint-aware fronts first and prunes the boundary
front one row at a time, recomputing crowding after every removal, so a
cluster of neighbours never leaves all at once. IBEA is the same loop
with the indicator stage selecting N rows directly and no crowding stage
(as is IDBEA with archive_keep_fraction=1.0). NSGA2 is the classic
generational baseline built from the same dominance, crowding, and
variation primitives.

Fitness orientation: each individual accumulates exp(-I/(c*kappa)) over
the scaled pairwise hypervolume indicator values against it, so dominated
individuals collect large sums and the worst individual is the argmax.
Environmental selection removes that argmax repeatedly, updating the sums
incrementally. Mating tournaments read the fitness the indicator stage
leaves behind.

Selection operates on raw objectives; constraint pressure enters as a
feasibility layer (infeasible individuals lose tournaments and are evicted
first, largest violation first). Archives keep the raw cost/emission values
of the repaired dispatches, so re-evaluating stored genes reproduces the
stored objectives exactly.

Single-objective mode ("chped") runs the same loop on the cost axis alone;
dominance degenerates to scalar comparison and the crowding stage is
skipped.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constraints import ConstraintConfig, evaluate_batch
from .model import SystemDefinition

FEASIBILITY_TOL = 1e-9
_ALGORITHMS = ("IDBEA", "IBEA", "NSGA2")
_MODES = ("chped", "chpeed")


@dataclass(frozen=True)
class EngineConfig:
    population_size: int = 200
    max_evaluations: int = 25000
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # None -> 1 / n_genes
    sbx_eta: float = 20.0
    pm_eta: float = 20.0
    kappa: float = 0.05
    # IDBEA: share of the indicator-selected pool the crowding stage keeps
    archive_keep_fraction: float = 0.8
    rng_seed: int = 0
    algorithm: str = "IDBEA"

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and at least 4")
        if self.max_evaluations < self.population_size:
            raise ValueError("max_evaluations must cover at least one population")
        if not 0 <= self.crossover_prob <= 1:
            raise ValueError("crossover_prob must be in [0, 1]")
        if self.mutation_prob is not None and not 0 <= self.mutation_prob <= 1:
            raise ValueError("mutation_prob must be in [0, 1]")
        if self.sbx_eta <= 0 or self.pm_eta <= 0:
            raise ValueError("distribution indices must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not 0 < self.archive_keep_fraction <= 1:
            raise ValueError("archive_keep_fraction must be in (0, 1]")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")


@dataclass(frozen=True, eq=False)
class FrontArchive:
    """Mutually non-dominated result set of one engine run."""
    genes: np.ndarray        # (n, n_genes) repaired decision vectors
    objectives: np.ndarray   # (n, 2) = (cost, emission), or (n, 1) cost only
    violations: np.ndarray   # (n,)
    run_id: str
    seed: int
    system_id: str
    algorithm: str
    n_evaluations: int = 0

    def __len__(self):
        return self.genes.shape[0]

    @property
    def points(self) -> list[tuple]:
        return [tuple(row) for row in self.objectives]


# ---------------------------------------------------------------------------
# Dominance primitives.
# ---------------------------------------------------------------------------

def _effective_violation(v):
    return np.where(np.asarray(v, float) <= FEASIBILITY_TOL, 0.0, v)


def dominates(a, b, violation_a: float = 0.0, violation_b: float = 0.0) -> bool:
    """Constraint-aware Pareto dominance, minimization on all axes.

    A lower (effective) violation dominates outright; at equal violation,
    componentwise <= with at least one strict <.
    """
    av = np.asarray(a, float).ravel()
    bv = np.asarray(b, float).ravel()
    if av.shape != bv.shape:
        raise ValueError(f"objective dimensions differ: {av.shape} vs {bv.shape}")
    viol = np.array([violation_a, violation_b], float)
    return bool(_domination_matrix(np.vstack([av, bv]), viol)[0, 1])


def _domination_matrix(objs: np.ndarray, viol: np.ndarray) -> np.ndarray:
    """D[i, j] = individual i dominates individual j."""
    v = _effective_violation(viol)
    n = objs.shape[0]
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for col in objs.T:
        le &= col[:, None] <= col[None, :]
        lt |= col[:, None] < col[None, :]
    pareto = le & lt
    v_lt = v[:, None] < v[None, :]
    v_eq = v[:, None] == v[None, :]
    return v_lt | (v_eq & pareto)


# ---------------------------------------------------------------------------
# Indicator fitness.
# ---------------------------------------------------------------------------

def _normalize_objs(objs: np.ndarray) -> np.ndarray:
    lo = objs.min(axis=0)
    span = objs.max(axis=0) - lo
    out = np.zeros_like(objs)
    nz = span > 0
    out[:, nz] = (objs[:, nz] - lo[nz]) / span[nz]
    return out


def _pairwise_indicator(nobjs: np.ndarray, ref: float = 1.1) -> np.ndarray:
    """I[j, i] = indicator of singleton j against singleton i, on
    normalized objectives. Generic in the number of objectives; the terms
    are built one objective column at a time from (n, n) matrices, which
    avoids (n, n, m) temporaries."""
    n = nobjs.shape[0]
    ih = np.ones(n)
    overlap = np.ones((n, n))
    weak = np.ones((n, n), dtype=bool)
    for col in nobjs.T:
        ih = ih * (ref - col)
        overlap = overlap * (ref - np.maximum(col[:, None], col[None, :]))
        weak &= col[:, None] <= col[None, :]
    return np.where(weak, ih[None, :] - ih[:, None], ih[None, :] - overlap)


def _indicator_fitness(objs: np.ndarray, kappa: float):
    """Fitness vector F and contribution matrix E.

    E[j, i] = exp(-I[j, i] / (c_i * kappa)) where c_i is the largest
    absolute indicator value against individual i, so each individual's
    incoming comparisons use its own scale; F_i = sum_{j != i} E[j, i].
    Larger F marks a worse individual. An individual attacked weakly by
    everything (an isolated extreme) collects a near-zero sum; one covered
    tightly by neighbors or dominators collects a large one.
    """
    nobjs = _normalize_objs(objs)
    ind = _pairwise_indicator(nobjs)
    c = np.abs(ind).max(axis=0)
    c[c == 0.0] = 1.0
    e = np.exp(-ind / (c[None, :] * kappa))
    np.fill_diagonal(e, 0.0)
    return e.sum(axis=0), e


def _neumaier_add(fit, comp, b):
    """One compensated-summation step: returns fit + b, accumulating the
    rounding error of the addition into comp."""
    t = fit + b
    comp += np.where(np.abs(fit) >= np.abs(b), (fit - t) + b, (b - t) + fit)
    return t


def _env_select(objs: np.ndarray, viol: np.ndarray, n_keep: int,
                kappa: float):
    """Remove worst individuals until n_keep remain.

    Constraint layer first: while any (effectively) infeasible individual
    is alive, the one with the largest violation goes, fitness breaking
    ties. Among feasible individuals the largest fitness goes, first
    occurrence breaking exact ties. Returns (alive indices in original
    order, fitness after all removals, removal order). Normalization and
    indicator scaling are fixed at entry; removals only subtract each
    removed individual's contribution terms.

    The running sums are compensated (Neumaier): the exponential terms
    span ~9 orders of magnitude, and both the initial accumulation and
    the removal of a dominator's huge contribution would otherwise leave
    rounding residue far above the 1e-9 agreement the
    recompute-from-scratch check expects.
    """
    n = objs.shape[0]
    _, e = _indicator_fitness(objs, kappa)
    fit = np.zeros(n)
    comp = np.zeros(n)
    for j in range(n):
        fit = _neumaier_add(fit, comp, e[j])
    veff = _effective_violation(viol)
    alive = np.ones(n, dtype=bool)
    removal_order = []
    for _ in range(n - n_keep):
        idx = np.flatnonzero(alive)
        corrected = fit[idx] + comp[idx]
        v_max = veff[idx].max()
        if v_max > 0.0:
            cand = veff[idx] == v_max
            worst = idx[cand][np.argmax(corrected[cand])]
        else:
            worst = idx[np.argmax(corrected)]
        alive[worst] = False
        removal_order.append(int(worst))
        fit = _neumaier_add(fit, comp, -e[worst])
    return np.flatnonzero(alive), fit + comp, removal_order


# ---------------------------------------------------------------------------
# Crowding distance.
# ---------------------------------------------------------------------------

def _crowding(objs: np.ndarray) -> np.ndarray:
    n = objs.shape[0]
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(objs.shape[1]):
        order = np.argsort(objs[:, j], kind="stable")
        vals = objs[order, j]
        span = vals[-1] - vals[0]
        if span > 0:
            dist[order[1:-1]] += (vals[2:] - vals[:-2]) / span
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
    return dist


def _crowding_truncate(objs: np.ndarray, viol: np.ndarray,
                       n_keep: int) -> np.ndarray:
    """Indices (in original order) of the n_keep rows the crowding stage
    keeps.

    Whole constraint-aware fronts go worst rank first; removing rows from
    the worst front never changes the ranks of the others, so the fronts
    are computed once. Inside the boundary front the least-crowded row
    goes (the first one on ties), crowding is recomputed over the rows
    left in that front, and the step repeats. Both per-objective extremes
    of the boundary front carry infinite crowding and so outlast every
    interior row.
    """
    kept: list[np.ndarray] = []
    room = n_keep
    for idx in _fast_nds(objs, viol):
        while idx.shape[0] > room:
            idx = np.delete(idx, np.argmin(_crowding(objs[idx])))
        kept.append(idx)
        room -= idx.shape[0]
        if room == 0:
            break
    return np.sort(np.concatenate(kept))


# ---------------------------------------------------------------------------
# Variation operators and the binary tournament.
# ---------------------------------------------------------------------------

def _sbx_pair(a, b, lower, upper, cfg: EngineConfig, rng):
    if rng.random() >= cfg.crossover_prob:
        return a.copy(), b.copy()
    u = rng.random(a.shape[0])
    mask = rng.random(a.shape[0]) < 0.5
    exp = 1.0 / (cfg.sbx_eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exp,
                    (1.0 / (2.0 * (1.0 - u))) ** exp)
    c1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    c2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    c1 = np.where(mask, c1, a)
    c2 = np.where(mask, c2, b)
    return np.clip(c1, lower, upper), np.clip(c2, lower, upper)


def _pm_genes(x, lower, upper, cfg: EngineConfig, rng, pm_prob: float):
    y = x.copy()
    do = rng.random(x.shape[0]) < pm_prob
    k = int(do.sum())
    if k == 0:
        return y
    r = rng.random(k)
    exp = 1.0 / (cfg.pm_eta + 1.0)
    delta = np.where(r < 0.5, (2.0 * r) ** exp - 1.0,
                     1.0 - (2.0 * (1.0 - r)) ** exp)
    y[do] += delta * (upper[do] - lower[do])
    return np.clip(y, lower, upper)


def _tournament_idx(primary: np.ndarray, secondary: np.ndarray, rng) -> int:
    """Binary tournament on the key (primary, secondary), lower winning:
    (violation, fitness) for the indicator loop, (rank, -crowding) for
    NSGA2. Exact ties keep the first draw."""
    i, j = rng.integers(0, primary.shape[0], size=2)
    i, j = int(i), int(j)
    if primary[j] < primary[i] or (primary[j] == primary[i]
                                   and secondary[j] < secondary[i]):
        return j
    return i


def _fast_nds(objs: np.ndarray, viol: np.ndarray) -> list:
    """Ranked fronts as index arrays, constraint-aware."""
    d = _domination_matrix(objs, viol)
    n = objs.shape[0]
    n_dom = d.sum(axis=0).astype(np.int64)
    unranked = np.ones(n, dtype=bool)
    fronts = []
    while unranked.any():
        cur = np.flatnonzero(unranked & (n_dom == 0))
        fronts.append(cur)
        unranked[cur] = False
        n_dom -= d[cur].sum(axis=0)
        n_dom[~unranked] = np.iinfo(np.int64).max // 2
    return fronts


# ---------------------------------------------------------------------------
# Engine loops.
# ---------------------------------------------------------------------------

def _raw_objs(ev, n_objs: int) -> np.ndarray:
    if n_objs == 1:
        return ev.cost[:, None]
    return np.column_stack([ev.cost, ev.emission])


def _make_front(genes, raw, viol, system, ecfg, seed, evals) -> FrontArchive:
    fronts = _fast_nds(raw, viol)
    keep = fronts[0]
    genes, raw, viol = genes[keep], raw[keep], viol[keep]
    _, first = np.unique(genes, axis=0, return_index=True)
    keep = np.sort(first)
    return FrontArchive(
        genes=genes[keep].copy(),
        objectives=raw[keep].copy(),
        violations=viol[keep].copy(),
        run_id=f"{system.name}-{ecfg.algorithm}-s{seed}",
        seed=seed,
        system_id=system.name,
        algorithm=ecfg.algorithm,
        n_evaluations=evals,
    )


def _spawn_children(arch_genes, pick_parent, lower, upper, ecfg, rng,
                    pm_prob):
    n, m = ecfg.population_size, arch_genes.shape[1]
    children = np.empty((n, m))
    filled = 0
    while filled < n:
        pa = pick_parent(rng)
        pb = pick_parent(rng)
        c1, c2 = _sbx_pair(arch_genes[pa], arch_genes[pb], lower, upper,
                           ecfg, rng)
        children[filled] = _pm_genes(c1, lower, upper, ecfg, rng, pm_prob)
        filled += 1
        if filled < n:
            children[filled] = _pm_genes(c2, lower, upper, ecfg, rng, pm_prob)
            filled += 1
    return children


def _setup(system, ecfg, ccfg, mode):
    """The start both loops share: a generator seeded from ecfg.rng_seed
    draws a random first population in the gene box, which is evaluated.
    Returns (breed, (genes, objectives, violations) of that population);
    breed(parents, pick_parent) spawns N children by tournament, SBX and
    polynomial mutation (rate 1 / n_genes unless configured) and returns
    them evaluated the same way."""
    rng = np.random.default_rng(ecfg.rng_seed)
    lower, upper = system.gene_bounds()
    n_objs = 1 if mode == "chped" else 2
    pm_prob = ecfg.mutation_prob
    if pm_prob is None:
        pm_prob = 1.0 / system.n_genes

    def evaluated(genes):
        ev = evaluate_batch(genes, system, ccfg)
        return ev.genes, _raw_objs(ev, n_objs), ev.violation

    def breed(parents, pick_parent):
        return evaluated(_spawn_children(parents, pick_parent, lower, upper,
                                         ecfg, rng, pm_prob))

    genes = rng.random((ecfg.population_size, system.n_genes)) \
        * (upper - lower) + lower
    return breed, evaluated(genes)


def _indicator_loop(system, ecfg, ccfg, mode) -> FrontArchive:
    breed, (p_genes, p_objs, p_viol) = _setup(system, ecfg, ccfg, mode)
    n = ecfg.population_size
    crowd = ecfg.algorithm == "IDBEA" and p_objs.shape[1] == 2
    n_pool = int(np.ceil(n / ecfg.archive_keep_fraction)) if crowd else n
    evals = n
    a_genes, a_objs, a_viol = p_genes[:0], p_objs[:0], p_viol[:0]

    while True:
        q_genes = np.vstack([p_genes, a_genes])
        q_objs = np.vstack([p_objs, a_objs])
        q_viol = np.concatenate([p_viol, a_viol])

        if q_genes.shape[0] > n_pool:
            alive, fit, _ = _env_select(q_objs, q_viol, n_pool, ecfg.kappa)
        else:
            fit, _ = _indicator_fitness(q_objs, ecfg.kappa)
            alive = np.arange(q_genes.shape[0])
        if alive.shape[0] > n:
            alive = alive[_crowding_truncate(q_objs[alive], q_viol[alive], n)]
        a_genes, a_objs, a_viol = q_genes[alive], q_objs[alive], q_viol[alive]
        a_fit, a_veff = fit[alive], _effective_violation(q_viol[alive])

        if evals >= ecfg.max_evaluations:
            return _make_front(a_genes, a_objs, a_viol, system, ecfg,
                               ecfg.rng_seed, evals)

        p_genes, p_objs, p_viol = breed(
            a_genes, lambda r: _tournament_idx(a_veff, a_fit, r))
        evals += n


def _ranks_and_crowding(objs: np.ndarray, viol: np.ndarray):
    """Constraint-aware fronts, plus each row's front rank and its
    crowding distance within its front."""
    fronts = _fast_nds(objs, viol)
    ranks = np.empty(objs.shape[0], dtype=np.int64)
    crowd = np.zeros(objs.shape[0])
    for r, idx in enumerate(fronts):
        ranks[idx] = r
        crowd[idx] = _crowding(objs[idx])
    return fronts, ranks, crowd


def _nsga2_loop(system, ecfg, ccfg, mode) -> FrontArchive:
    breed, (p_genes, p_objs, p_viol) = _setup(system, ecfg, ccfg, mode)
    n = ecfg.population_size
    evals = n
    _, ranks, crowd = _ranks_and_crowding(p_objs, p_viol)

    while evals < ecfg.max_evaluations:
        neg_crowd = -crowd
        c_genes, c_objs, c_viol = breed(
            p_genes, lambda r: _tournament_idx(ranks, neg_crowd, r))
        evals += n

        r_genes = np.vstack([p_genes, c_genes])
        r_objs = np.vstack([p_objs, c_objs])
        r_viol = np.concatenate([p_viol, c_viol])
        r_fronts, r_ranks, r_crowd = _ranks_and_crowding(r_objs, r_viol)

        chosen: list[int] = []
        for idx in r_fronts:
            if len(chosen) + idx.shape[0] <= n:
                chosen.extend(idx.tolist())
            else:
                need = n - len(chosen)
                order = np.argsort(-r_crowd[idx], kind="stable")
                chosen.extend(idx[order[:need]].tolist())
                break
        pick = np.array(chosen)
        p_genes, p_objs, p_viol = r_genes[pick], r_objs[pick], r_viol[pick]
        ranks, crowd = r_ranks[pick], r_crowd[pick]

    return _make_front(p_genes, p_objs, p_viol, system, ecfg,
                       ecfg.rng_seed, evals)


def run(system: SystemDefinition, ecfg: EngineConfig,
        ccfg: ConstraintConfig | None = None, mode: str = "chpeed",
        ) -> FrontArchive:
    """Run the configured algorithm to its evaluation budget and return
    the first non-dominated front of the final archive."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if ccfg is None:
        ccfg = ConstraintConfig()
    if ecfg.algorithm == "NSGA2":
        return _nsga2_loop(system, ecfg, ccfg, mode)
    return _indicator_loop(system, ecfg, ccfg, mode)


def idbea_run(system, ecfg: EngineConfig, ccfg=None, mode="chpeed"):
    return run(system, replace(ecfg, algorithm="IDBEA"), ccfg, mode)


def ibea_run(system, ecfg: EngineConfig, ccfg=None, mode="chpeed"):
    return run(system, replace(ecfg, algorithm="IBEA"), ccfg, mode)


def nsga2_run(system, ecfg: EngineConfig, ccfg=None, mode="chpeed"):
    return run(system, replace(ecfg, algorithm="NSGA2"), ccfg, mode)
