"""Evolutionary core: one generational loop for IDBEA, IBEA and NSGA2.

A generator seeded from rng_seed draws a first population in the gene
box. Each generation then repairs and evaluates the children, pools them
(first) with the survivors, selects N survivors, and spawns N children by
binary tournament, SBX and polynomial mutation over whole arrays. SBX
children are clipped into the gene box before mutation, and clipped
again after it. Survivor selection is the only per-algorithm step; it
also returns the survivors' tournament key, lower winning:

- IDBEA: indicator-based environmental selection reduces the pool to
  N / ARCHIVE_KEEP_FRACTION rows, rounded up (250 for the default N=200,
  fraction 0.8), and a crowding stage keeps the most spread-out N of
  those. It drops the worst-ranked constraint-aware fronts first and
  prunes the boundary front one row at a time, bringing crowding up to
  date after every removal, so a cluster of neighbours never leaves all
  at once. A removal changes only its sort neighbours' crowding, so only
  theirs is recomputed. Key: (violation, fitness).
- IBEA: the indicator stage selects N rows directly, with no crowding
  stage.
- NSGA2: whole fronts best rank first, the boundary front cut by
  crowding. Key: (rank, -crowding).

Each reads the fronts from one vector of constraint-aware ranks
(_fast_nds), and so does the final front, the rows of rank 0.

Fitness orientation: each individual accumulates exp(-I/(c*KAPPA)) over
the scaled pairwise hypervolume indicator values against it, so dominated
individuals collect large sums and the worst individual is the argmax.
Environmental selection removes that argmax repeatedly, updating the sums
incrementally. The sums are compensated and carry the same bits as a
sequential Neumaier summation, row by row; the start-up computes them
without a Python loop (see _env_select). Each pairwise overlap side is
formed as min(ref - a, ref - b), which equals ref - max(a, b) bit for bit
(see _pairwise_indicator), and removed rows leave the argmax through a
dead vector of 0.0 and -inf added to the fitness, not a mask. A run
allocates one _workspace for its 2N pools, and every selection writes its
(n, n) matrices there, so no generation maps and faults in fresh ones.

Selection operates on raw objectives; constraint pressure enters as a
feasibility layer (infeasible individuals lose tournaments and are evicted
first, largest violation first). Survivors keep the raw cost/emission
values of the repaired dispatches, so re-evaluating stored genes
reproduces the stored objectives exactly.

Single-objective mode ("chped") runs the same loop on the cost axis alone;
dominance degenerates to scalar comparison, indicator selection to a sort
by (violation, cost), and the crowding stage is skipped, so IDBEA and
IBEA are one solver there.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

import numpy as np

from .constraints import evaluate_batch
from .model import SystemDefinition, require_integers

FEASIBILITY_TOL = 1e-9
# one set of variation and indicator settings for all three solvers; the
# mutation probability per gene is 1 / n_genes
CROSSOVER_PROB = 0.9
SBX_ETA = 20.0
PM_ETA = 20.0
KAPPA = 0.05
# reference point of the pairwise indicator on normalized objectives
INDICATOR_REF = 1.1
# IDBEA: share of the indicator-selected pool the crowding stage keeps
ARCHIVE_KEEP_FRACTION = 0.8
_ALGORITHMS = ("IDBEA", "IBEA", "NSGA2")
_MODES = ("chped", "chpeed")


@dataclass(frozen=True)
class EngineConfig:
    population_size: int = 200
    max_evaluations: int = 25000
    rng_seed: int = 0
    algorithm: str = "IDBEA"

    def __post_init__(self):
        require_integers(self, ("population_size", "max_evaluations",
                                "rng_seed"))
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and at least 4")
        if self.max_evaluations < self.population_size:
            raise ValueError("max_evaluations must cover at least one population")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")


@dataclass(frozen=True, eq=False)
class FrontArchive:
    """Mutually non-dominated result set of one engine run."""
    genes: np.ndarray        # (n, n_genes) repaired decision vectors
    objectives: np.ndarray   # (n, 2) = (cost, emission), or (n, 1) cost only
    violations: np.ndarray   # (n,)
    n_evaluations: int = 0

    def __len__(self):
        return self.genes.shape[0]


# ---------------------------------------------------------------------------
# Dominance primitives.
# ---------------------------------------------------------------------------

def _effective_violation(v):
    return np.where(np.asarray(v, float) <= FEASIBILITY_TOL, 0.0, v)


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


# the buffers of a _workspace: three float matrices, then two bool masks
_WORK_TYPES = (float, float, float, bool, bool)


def _workspace(n: int) -> tuple:
    """Work buffers for indicator selection on pools of up to n rows: one
    flat buffer of n * n entries per type in _WORK_TYPES. A run allocates
    one workspace and passes it to every selection, so no generation
    allocates (and the kernel need not fault in and zero) a fresh n x n
    matrix."""
    return tuple(np.empty(n * n, t) for t in _WORK_TYPES)


def _buffer(work, k: int, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) view of the front of buffer k of work, or a new
    array of that buffer's type when work is None. Its contents are
    undefined."""
    if work is None:
        return np.empty((rows, cols), _WORK_TYPES[k])
    return work[k][:rows * cols].reshape(rows, cols)


def _pairwise_indicator(nobjs: np.ndarray, work=None) -> np.ndarray:
    """I[j, i] = indicator of singleton j against singleton i, on
    normalized objectives. Generic in the number of objectives; the terms
    are built one objective column at a time from (n, n) matrices, which
    avoids (n, n, m) temporaries. The result lies in buffer 0 of work.

    With ref = INDICATOR_REF, each overlap side is min(ref - a, ref - b):
    one np.minimum of the (ref - col) vector against itself, not a maximum
    and then a subtraction. It equals ref - max(a, b) bit for bit:
    rounding to nearest is monotone, so the larger value always gives the
    smaller rounded difference."""
    n = nobjs.shape[0]
    overlap = _buffer(work, 0, n, n)
    tmp = _buffer(work, 1, n, n)
    weak = _buffer(work, 3, n, n)
    le = _buffer(work, 4, n, n)
    col = nobjs[:, 0]
    ih = INDICATOR_REF - col
    np.minimum(ih[:, None], ih[None, :], out=overlap)
    np.less_equal(col[:, None], col[None, :], out=weak)
    for col in nobjs.T[1:]:
        side = INDICATOR_REF - col
        ih = ih * side
        overlap *= np.minimum(side[:, None], side[None, :], out=tmp)
        weak &= np.less_equal(col[:, None], col[None, :], out=le)
    np.subtract(ih[None, :], overlap, out=overlap)
    np.subtract(ih[None, :], ih[:, None], out=tmp)
    np.copyto(overlap, tmp, where=weak)
    return overlap


def _indicator_fitness(objs: np.ndarray, work=None) -> np.ndarray:
    """Contribution matrix E, in buffer 0 of work; the fitness F is its
    column sum.

    E[j, i] = exp(-I[j, i] / (c_i * KAPPA)) where c_i is the largest
    absolute indicator value against individual i, so each individual's
    incoming comparisons use its own scale; F_i = sum_{j != i} E[j, i].
    Larger F marks a worse individual. An individual attacked weakly by
    everything (an isolated extreme) collects a near-zero sum; one covered
    tightly by neighbors or dominators collects a large one.
    """
    e = _pairwise_indicator(_normalize_objs(objs), work=work)
    c = np.maximum(e.max(axis=0), -e.min(axis=0))
    c[c == 0.0] = 1.0
    # in place: I / (-s) and -(I / s) round alike
    np.divide(e, -(c * KAPPA), out=e)
    np.exp(e, out=e)
    np.fill_diagonal(e, 0.0)
    return e


def _env_select(objs: np.ndarray, viol: np.ndarray, n_keep: int,
                work=None):
    """Remove worst individuals until n_keep remain.

    Constraint layer first: while any (effectively) infeasible individual
    is alive, the one with the largest violation goes, fitness breaking
    ties. Among feasible individuals the largest fitness goes, first
    occurrence breaking exact ties. Returns (alive indices in original
    order, fitness after all removals, removal order). Normalization and
    indicator scaling are fixed at entry; removals only subtract each
    removed individual's contribution terms. The (n, n) matrices live in
    work, a _workspace of at least n rows, or are allocated per call when
    work is None.

    The running sums are compensated (Neumaier): the exponential terms
    span ~9 orders of magnitude, and both the initial accumulation and
    the removal of a dominator's huge contribution would otherwise leave
    rounding residue far above the 1e-9 agreement the
    recompute-from-scratch check expects.

    Every float equals that of adding the rows of E one at a time with a
    Neumaier step, yet the start-up runs no Python loop. The running sums
    are cumsum(E, axis=0), sequential by definition. Each addition's
    rounding error is the exact Fast2Sum error (max - sum) + min, taking
    max and min by value, which is valid because every term is
    nonnegative. The compensation is the row-by-row sum of those errors.
    A long-double column sum is not used: it rounds each total once,
    which differs from the sequential float64 sum in the last bit on some
    real pools, and fitness is the tournament key, so fronts would
    change. Each removal subtracts the removed row by TwoSum, which gives
    the same exact error as the Neumaier branch. The argmax key is
    fitness plus a dead vector, 0.0 for a live row and -inf for a removed
    one: x + 0.0 is x, and fitness is always finite (each term lies in
    [e^-20, e^20]). The violation key is read only while an infeasible
    row is alive.
    """
    n = objs.shape[0]
    e = _indicator_fitness(objs, work)
    run = np.cumsum(e, axis=0, out=_buffer(work, 1, n, n))
    fit = run[-1].copy()
    err = np.maximum(run[:-1], e[1:], out=_buffer(work, 2, n - 1, n))
    err -= run[1:]
    err += np.minimum(run[:-1], e[1:], out=run[:-1])
    comp = err.sum(axis=0)
    del run, err
    veff = _effective_violation(viol)
    n_infeasible = int((veff > 0.0).sum())
    vkey = veff.copy()
    dead = np.zeros(n)
    key = fit + comp
    removal_order = []
    for _ in range(n - n_keep):
        if n_infeasible:
            worst = int(np.where(vkey == vkey.max(), key, -np.inf).argmax())
            n_infeasible -= bool(veff[worst] > 0.0)
        else:
            worst = int(key.argmax())
        dead[worst] = vkey[worst] = -np.inf
        removal_order.append(worst)
        # TwoSum of fit and -e[worst]: t + error is exact
        t = fit - e[worst]
        bv = t - fit
        comp += (fit - (t - bv)) - (e[worst] + bv)
        fit = t
        np.add(fit, comp, out=key)
        key += dead
    return np.flatnonzero(dead == 0.0), fit + comp, removal_order


# ---------------------------------------------------------------------------
# Crowding distance and non-dominated sorting.
# ---------------------------------------------------------------------------

def _crowding(objs: np.ndarray, ranks: np.ndarray | None = None) -> np.ndarray:
    """Crowding distance of each row within its front, the rows of equal
    rank (one front when ranks is None), from one stable sort by (rank,
    value) per objective. _crowding_prune repeats this sum row by row
    (0.0 plus the terms in objective order, zero-span objectives
    skipped) to keep its bits: change both together."""
    n = objs.shape[0]
    ranks = np.zeros(n, dtype=np.int64) if ranks is None else ranks
    dist = np.zeros(n)
    for col in objs.T:
        order = np.lexsort((col, ranks))
        vals, r = col[order], ranks[order]
        starts = np.r_[True, r[1:] != r[:-1]]
        first = np.flatnonzero(starts)
        last = np.r_[first[1:] - 1, n - 1]
        span = np.repeat(vals[last] - vals[first], last - first + 1)
        inner = np.flatnonzero(~starts[1:-1] & ~starts[2:]
                               & (span[1:-1] > 0)) + 1
        dist[order[inner]] += (vals[inner + 1] - vals[inner - 1]) \
            / span[inner]
        dist[order[first]] = np.inf
        dist[order[last]] = np.inf
    return dist


def _crowding_truncate(objs: np.ndarray, viol: np.ndarray,
                       n_keep: int) -> np.ndarray:
    """Indices (in original order) of the n_keep rows the crowding stage
    keeps.

    Whole constraint-aware fronts go worst rank first; removing rows from
    the worst front never changes the ranks of the others, so the ranks
    are computed once. The boundary front holds the n_keep-th row in rank
    order. Inside it the least-crowded row goes (the first one on ties),
    crowding is brought up to date over the rows left in that front, and
    the step repeats. Both per-objective extremes of the boundary front
    carry infinite crowding and so outlast every interior row.
    """
    rank = _fast_nds(objs, viol)
    cut = np.sort(rank)[n_keep - 1]
    keep = rank < cut
    edge = np.flatnonzero(rank == cut)
    keep[edge[_crowding_prune(objs[edge], n_keep - int(keep.sum()))]] = True
    return np.flatnonzero(keep)


def _crowding_prune(objs: np.ndarray, n_keep: int) -> np.ndarray:
    """Mask of the n_keep rows left after removing the least-crowded row
    (the first one on ties) one at a time, each removal seeing the
    crowding of the rows left.

    Dropping a row keeps the stable per-objective sort order of the
    others, so the order is held as per-objective neighbour links. After
    an interior row goes, the extremes and spans stay and only its sort
    neighbours' crowding changes: each is recomputed as 0.0 plus its
    per-objective terms in objective order, the same sum _crowding forms.
    When the row that goes is an extreme of some objective (possible when
    every row left has infinite crowding), the spans change, and crowding
    starts over on the rows left.
    """
    n, m = objs.shape
    alive = np.ones(n, dtype=bool)
    left = n
    while left > n_keep:
        rows = np.flatnonzero(alive)
        sub = objs[rows]
        dist = _crowding(sub)
        order = np.argsort(sub, axis=0, kind="stable").T
        prev = np.full(order.shape, -1)
        succ = np.full(order.shape, -1)
        axis = np.arange(m)[:, None]
        prev[axis, order[:, 1:]] = order[:, :-1]
        succ[axis, order[:, :-1]] = order[:, 1:]
        prev, succ, cols = prev.tolist(), succ.tolist(), sub.T.tolist()
        ends = set(order[:, [0, -1]].ravel().tolist())
        span = [c[o[-1]] - c[o[0]] for c, o in zip(cols, order.tolist())]
        while left > n_keep:
            p = int(dist.argmin())
            if dist[p] == np.inf:
                p = int(np.argmax(alive[rows]))
            alive[rows[p]] = False
            left -= 1
            if p in ends:
                break
            dist[p] = np.inf
            near = set()
            for j in range(m):
                a, b = prev[j][p], succ[j][p]
                succ[j][a] = b
                prev[j][b] = a
                near.update((a, b))
            for q in near - ends:
                d = 0.0
                for j in range(m):
                    if span[j] > 0:
                        d += (cols[j][succ[j][q]] - cols[j][prev[j][q]]) \
                            / span[j]
                dist[q] = d
    return alive


def _fast_nds(objs: np.ndarray, viol: np.ndarray) -> np.ndarray:
    """Constraint-aware front rank of each row, 0 for the first front, as
    an (n,) int64 array, for one or two objectives, by sorting (Kung,
    Luccio & Preparata 1975; Jensen 2003) instead of a pairwise domination
    matrix. Front k is np.flatnonzero(rank == k).

    A lower effective violation dominates outright, so the rows go in
    groups of equal violation, lowest first, and a group's fronts follow
    every front of the groups before it. Within a group the rows go in
    (cost, emission) order, emission being 0 for one objective. Each row
    joins the first front whose least emission is above its own, or the
    front whose least emission it equals when the row that set it has
    the same cost too (an exact duplicate). The least emissions never
    decrease with the front index, so a bisection finds that front.
    """
    n = objs.shape[0]
    veff = _effective_violation(viol)
    cost = objs[:, 0]
    emit = objs[:, 1] if objs.shape[1] > 1 else np.zeros(n)
    order = np.lexsort((emit, cost, veff))
    ranks = []
    base, group, least, setter = 0, None, [], []
    for v, c, e in zip(veff[order].tolist(), cost[order].tolist(),
                       emit[order].tolist()):
        if v != group:
            base, group, least, setter = base + len(least), v, [], []
        f = bisect_right(least, e)
        if f and least[f - 1] == e and setter[f - 1] == c:
            f -= 1
        least[f:f + 1], setter[f:f + 1] = [e], [c]   # appends past the end
        ranks.append(base + f)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = ranks
    return rank


# ---------------------------------------------------------------------------
# Survivor selection, the one per-algorithm step. Each returns (survivor
# indices into the pool, primary key, secondary key): the survivors and
# their tournament key, lower winning.
# ---------------------------------------------------------------------------

def _indicator_select(objs: np.ndarray, viol: np.ndarray, ecfg: EngineConfig,
                      work=None):
    """IDBEA/IBEA: indicator-based selection down to the pool size, then
    (IDBEA) the crowding stage down to N. Key: (effective violation,
    fitness). The first pool, no larger than the pool size, goes through
    _env_select with no removal. work is the _workspace the indicator
    stage computes in, or None to allocate per call.

    With one objective, fitness rises strictly with cost in exact
    arithmetic, so this is a sort: the best N by (effective violation,
    cost) stay, the higher index on exact ties, and cost is the key. The
    algorithm is not read: in chped mode IDBEA and IBEA are one solver.
    """
    n = ecfg.population_size
    if objs.shape[1] == 1:
        veff = _effective_violation(viol)
        best = np.lexsort((-np.arange(objs.shape[0]), objs[:, 0], veff))
        alive = np.sort(best[:n])
        return alive, veff[alive], objs[alive, 0]
    crowd = ecfg.algorithm == "IDBEA"
    n_pool = int(np.ceil(n / ARCHIVE_KEEP_FRACTION)) if crowd else n
    alive, fit, _ = _env_select(objs, viol, min(n_pool, objs.shape[0]),
                                work)
    if alive.shape[0] > n:
        alive = alive[_crowding_truncate(objs[alive], viol[alive], n)]
    return alive, _effective_violation(viol[alive]), fit[alive]


def _nsga2_select(objs: np.ndarray, viol: np.ndarray, ecfg: EngineConfig):
    """NSGA2: whole fronts best rank first, the boundary front cut by
    descending crowding (first rows on ties). Key: (rank, -crowding).
    Whole fronts stay in index order: the tournament draws positions."""
    n = ecfg.population_size
    rank = _fast_nds(objs, viol)
    crowd = _crowding(objs, rank)
    # the rank of the first row left out (none: past every rank)
    cut = np.append(np.sort(rank), rank.max() + 1)[n]
    pick = np.lexsort((np.where(rank < cut, 0.0, -crowd), rank))[:n]
    return pick, rank[pick], -crowd[pick]


# ---------------------------------------------------------------------------
# Variation: binary tournament, SBX and polynomial mutation over arrays.
# ---------------------------------------------------------------------------

def _tournament(primary: np.ndarray, secondary: np.ndarray, k: int,
                rng) -> np.ndarray:
    """Winners of k binary tournaments on the key (primary, secondary),
    lower winning. One (2, k) index draw; in each column the second draw
    wins only if it is strictly better, so exact ties keep the first."""
    i, j = rng.integers(0, primary.shape[0], size=(2, k))
    better = (primary[j] < primary[i]) | ((primary[j] == primary[i])
                                          & (secondary[j] < secondary[i]))
    return np.where(better, j, i)


def _spawn_children(genes, primary, secondary, lower, upper, n: int,
                    rng) -> np.ndarray:
    """n children of the survivors: tournament winners 0::2 and 1::2 pair
    up, SBX (Deb & Agrawal 1995) writes c1 to rows 0::2 and c2 to rows
    1::2, the children are clipped into the gene box, then polynomial
    mutation (Deb & Goyal 1996) moves each of the m genes with probability
    1 / m and the result is clipped again. Draws, in order: the (2, n)
    tournament indices; one crossover flag per pair; the SBX spread u and
    the per-gene exchange mask, (n/2, m) each; the mutation flags and the
    mutation r, (n, m) each."""
    m = genes.shape[1]
    win = _tournament(primary, secondary, n, rng)
    a, b = genes[win[0::2]], genes[win[1::2]]
    cross = rng.random(n // 2) < CROSSOVER_PROB
    u = rng.random((n // 2, m))
    mask = (rng.random((n // 2, m)) < 0.5) & cross[:, None]
    exp = 1.0 / (SBX_ETA + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exp,
                    (1.0 / (2.0 * (1.0 - u))) ** exp)
    c1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    c2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    children = np.empty((n, m))
    children[0::2] = np.where(mask, c1, a)
    children[1::2] = np.where(mask, c2, b)
    np.clip(children, lower, upper, out=children)
    do = rng.random((n, m)) < 1.0 / m
    r = rng.random((n, m))
    exp = 1.0 / (PM_ETA + 1.0)
    delta = np.where(r < 0.5, (2.0 * r) ** exp - 1.0,
                     1.0 - (2.0 * (1.0 - r)) ** exp)
    children = np.where(do, children + delta * (upper - lower), children)
    return np.clip(children, lower, upper)


# ---------------------------------------------------------------------------
# The generational loop.
# ---------------------------------------------------------------------------

def _raw_objs(ev, n_objs: int) -> np.ndarray:
    if n_objs == 1:
        return ev.cost[:, None]
    return np.column_stack([ev.cost, ev.emission])


def _make_front(genes, raw, viol, evals) -> FrontArchive:
    keep = np.flatnonzero(_fast_nds(raw, viol) == 0)
    genes, raw, viol = genes[keep], raw[keep], viol[keep]
    _, first = np.unique(genes, axis=0, return_index=True)
    keep = np.sort(first)
    return FrontArchive(
        genes=genes[keep].copy(),
        objectives=raw[keep].copy(),
        violations=viol[keep].copy(),
        n_evaluations=evals,
    )


def run(system: SystemDefinition, ecfg: EngineConfig,
        mode: str = "chpeed") -> FrontArchive:
    """Run the configured algorithm to its evaluation budget and return
    the first non-dominated front of the final survivors."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    n_objs = 1 if mode == "chped" else 2
    n = ecfg.population_size
    select = _nsga2_select
    if ecfg.algorithm != "NSGA2":
        # every pool after the first holds 2N rows
        select = partial(_indicator_select, work=_workspace(2 * n))
    rng = np.random.default_rng(ecfg.rng_seed)
    lower, upper = system.gene_bounds()
    ev = evaluate_batch(rng.random((n, system.n_genes)) * (upper - lower)
                        + lower, system)
    genes, objs, viol = ev.genes, _raw_objs(ev, n_objs), ev.violation
    evals = n
    while True:
        keep, primary, secondary = select(objs, viol, ecfg)
        genes, objs, viol = genes[keep], objs[keep], viol[keep]
        if evals >= ecfg.max_evaluations:
            return _make_front(genes, objs, viol, evals)
        ev = evaluate_batch(_spawn_children(genes, primary, secondary, lower,
                                            upper, n, rng), system)
        evals += n
        genes = np.vstack([ev.genes, genes])
        objs = np.vstack([_raw_objs(ev, n_objs), objs])
        viol = np.concatenate([ev.violation, viol])
