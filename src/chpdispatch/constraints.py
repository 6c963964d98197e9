"""Constraint handling: repair toward the feasible set, then measure what
is left. Every evaluation repairs first; repair has no settings.

Repair order matters. Box clamping and region projection first, so the
slack adjustments below start from capacity-feasible points; only the
points outside a region are projected. The heat balance is closed
through the largest heat-only unit, the power balance through the
largest power-only unit (resolve_slack_units). With network loss active
the slack output appears on both sides of the balance; under the
B-matrix loss that balance is a quadratic in the slack output, so the
slack is set to its stable root in one step, then polished by single
steps of the fixed point "slack = demand + loss - other outputs" until
the step falls below LOSS_FIXED_POINT_TOL (1e-12 MW), for at most
LOSS_FIXED_POINT_MAX_ITERS (50) passes.

Repair is a per-row function: every stop test is taken row by row, and the
loss is summed in a fixed order, so a row repairs to the same bits
whichever rows share its batch.

When a slack hits its box bound and cannot close the balance alone, the
leftover is spread proportionally over the remaining outputs within
their own feasible room: box room for power-only and heat-only units,
and for cogeneration units the feasible interval of the moved coordinate
at the fixed value of the other one, found for all cogeneration units in
one query of the system's region table (SystemDefinition.region_table).
A single-coordinate move inside that interval cannot leave the convex
operating region, so redistribution never undoes the projection step;
a last clip into the gene box takes back the round-off of its moves.
So a repaired row is inside its box and regions (within BOUNDARY_TOL)
by construction, and its constraint violation is what no room absorbed:
the absolute power and heat residuals. Selection compares raw
objectives and treats that violation as a separate layer (lower
violation wins first); no weighted penalty is added to either objective.
A cost or emission that is not finite is refused with a ValueError."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import SystemDefinition, balance_residuals_batch, cost_batch, \
    emission_batch, loss_batch, loss_in_power_output

LOSS_FIXED_POINT_TOL = 1e-12
LOSS_FIXED_POINT_MAX_ITERS = 50


def resolve_slack_units(system: SystemDefinition):
    """(power slack index, heat slack index): the largest unit of each
    kind, or None where the system has no unit of that kind."""
    return tuple(int(np.argmax(caps)) if caps else None
                 for caps in ([u.p_max for u in system.power_units],
                              [u.h_max for u in system.heat_units]))


def _proportional_share(room, amount):
    """Split per-row amounts over columns proportionally to the available
    room, never exceeding it. room: (R, K) non-negative, amount: (R,)
    non-negative. Returns (R, K) non-negative moves."""
    total = room.sum(axis=1)
    scale = np.minimum(1.0, amount / np.where(total > 0.0, total, 1.0))
    scale[total <= 0.0] = 0.0
    return room * scale[:, None]


def _chord_room(system, moved, fixed, rows, upward, heat):
    """Room of each cogen unit's moved coordinate (heat when `heat`, else
    power) along the chord of its region at the current value of the
    fixed coordinate, clamped into the gene bounds of that coordinate, the
    region's range (so every chord is met: lo <= hi). One chord query
    covers all units."""
    lower, upper = system.gene_bounds()
    first = system.n_power + (0 if heat else system.n_cogen)
    cols = slice(first, first + system.n_cogen)
    b_lo, b_hi = system.region_table.chord_bounds(
        np.clip(fixed[rows], lower[cols], upper[cols]), axis=0 if heat else 1)
    room = b_hi - moved[rows] if upward else moved[rows] - b_lo
    return np.clip(room, 0.0, None)


def _spread_leftover(leftover, out, lo, hi, k, moved, fixed, system, heat):
    """Absorb what slack column k of `out` could not, by moving the other
    columns of `out` within their boxes [lo, hi] and the cogen coordinate
    `moved` along its chords, in proportion to their room. Returns each
    row's largest single move."""
    largest = np.zeros(len(leftover))
    for sign in (1.0, -1.0):
        rows = np.flatnonzero(sign * leftover > 0.0)
        if rows.size == 0:
            continue
        upward = sign > 0
        box = hi - out[rows] if upward else out[rows] - lo
        box[:, k] = 0.0
        box = np.clip(box, 0.0, None)
        chords = _chord_room(system, moved, fixed, rows, upward, heat)
        moves = _proportional_share(np.hstack([box, chords]), sign * leftover[rows])
        out[rows] += sign * moves[:, :out.shape[1]]
        moved[rows] += sign * moves[:, out.shape[1]:]
        largest[rows] = moves.max(axis=1)
    return largest


def _until_settled(steps, arrays, tol):
    """Apply each of `steps` in turn to the row-aligned `arrays`, which a
    step changes in place and answers with each row's change. After every
    step only the rows whose change is at least `tol` go on to the next, so
    a row's result never depends on the other rows. While every row is
    still going the step works on the arrays themselves; after that on
    copies of the remaining rows, written back. Returns the last change of
    the rows still at or above `tol` when the steps run out."""
    rows = None
    for step in steps:
        sub = arrays if rows is None else [a[rows] for a in arrays]
        change = step(*sub)
        if rows is not None:
            for a, part in zip(arrays, sub):
                a[rows] = part
        going = change >= tol
        if not going.any():
            return change[going]
        if not going.all():
            rows = np.flatnonzero(going) if rows is None else rows[going]
            change = change[going]
    return change


def _close_heat_balance(o, h, t, system, hk):
    """Set the heat slack so total heat meets demand; spread what the
    slack cannot absorb over the other heat outputs."""
    u = system.heat_units[hk]
    need = system.heat_demand - h.sum(axis=1) - (t.sum(axis=1) - t[:, hk])
    t[:, hk] = np.clip(need, u.h_min, u.h_max)
    first = system.n_power + 2 * system.n_cogen
    lo, hi = (b[first:] for b in system.gene_bounds())
    _spread_leftover(need - t[:, hk], t, lo, hi, hk, h, o, system, heat=True)


def _close_power_balance(p, o, h, system, pk):
    """Set the power slack so generation meets demand plus loss, spreading
    what the slack cannot absorb over the other electric outputs.

    Without loss one pass closes the balance. With the B-matrix loss the
    balance is a quadratic in the slack output x, a x^2 + (b - 1) x + c' = 0
    (c' is the loss at x = 0 plus demand minus the other outputs), so the
    first pass sets x to its stable root 2c' / (sqrt((b - 1)^2 - 4ac') -
    (b - 1)), or to p_max where the discriminant is negative and no output
    closes the balance. Each later pass is one step of the fixed point
    x = demand + loss - others, with the leftover of a slack held at its
    bound spread over the other outputs; it polishes the root's round-off
    and follows the loss as the spread moves it. A row stops once its
    change falls below LOSS_FIXED_POINT_TOL; a RuntimeWarning reports rows
    still above it after LOSS_FIXED_POINT_MAX_ITERS passes."""
    u = system.power_units[pk]
    lo, hi = (b[:system.n_power] for b in system.gene_bounds())

    def others_of(p, o):
        return p.sum(axis=1) - p[:, pk] + o.sum(axis=1)

    def root(p, o, h):
        a, b, c = loss_in_power_output(p, o, system, pk)
        c = c + system.power_demand - others_of(p, o)
        b = b - 1.0
        disc = b * b - 4.0 * a * c
        with np.errstate(invalid="ignore", divide="ignore"):
            den = np.sqrt(disc) - b
            x = np.where((disc >= 0.0) & (den > 0.0), 2.0 * c / den, np.inf)
        new = np.clip(x, u.p_min, u.p_max)
        # a slack held at its bound leaves a leftover to spread: keep going
        change = np.where(new == x, np.abs(new - p[:, pk]), np.inf)
        p[:, pk] = new
        return change

    def fixed_point(p, o, h):
        need = system.power_demand + loss_batch(p, o, system) - others_of(p, o)
        new = np.clip(need, u.p_min, u.p_max)
        change = np.abs(new - p[:, pk])
        p[:, pk] = new
        return np.maximum(change, _spread_leftover(need - new, p, lo, hi, pk,
                                                   o, h, system, heat=False))

    if not system.loss_enabled:
        fixed_point(p, o, h)
        return
    n = LOSS_FIXED_POINT_MAX_ITERS
    left = _until_settled([root] + [fixed_point] * (n - 1), (p, o, h),
                          LOSS_FIXED_POINT_TOL)
    if left.size:
        warnings.warn(
            f"power balance fixed point stopped after {n} iteration(s) with "
            f"{left.size} row(s) still moving; largest last change "
            f"{left.max():.3g} MW",
            RuntimeWarning,
            stacklevel=2,
        )


def repair_batch(genes: np.ndarray, system: SystemDefinition) -> np.ndarray:
    """Repair an (M, n_genes) array into its box and regions, row by row
    (a row's result never depends on its batch). Returns a new array."""
    lower, upper = system.gene_bounds()
    g = np.clip(np.atleast_2d(np.asarray(genes, float)), lower, upper)
    p, o, h, t = system.split_genes(g)

    for j, u in enumerate(system.cogen_units):
        proj, _ = u.region.project_many(np.column_stack([o[:, j], h[:, j]]))
        o[:, j], h[:, j] = proj.T  # points inside project to themselves

    pk, hk = resolve_slack_units(system)

    # Power redistribution moves cogen powers, which changes the heat room
    # available along the region chords, so the pair is iterated to a
    # joint fixed point (heat moves never disturb the power balance, so
    # two passes normally settle a row).
    def heat_then_power(g):
        before = g.copy()
        p, o, h, t = system.split_genes(g)
        if hk is not None:
            _close_heat_balance(o, h, t, system, hk)
        if pk is not None:
            _close_power_balance(p, o, h, system, pk)
        return np.abs(g - before).max(axis=1)

    _until_settled([heat_then_power] * 4, (g,), 1e-12)
    return np.clip(g, lower, upper, out=g)


@dataclass(frozen=True, eq=False)
class PopulationEval:
    """Evaluation of a gene batch after repair: the repaired genes, their
    raw cost and emission, and violation, the absolute power plus heat
    balance residual, which the engines compare as a layer ahead of the
    objectives (nothing is folded into cost or emission)."""
    genes: np.ndarray
    cost: np.ndarray
    emission: np.ndarray
    violation: np.ndarray


def evaluate_batch(genes: np.ndarray,
                   system: SystemDefinition) -> PopulationEval:
    g = repair_batch(genes, system)
    p, o, h, t = system.split_genes(g)

    cost = cost_batch(p, o, h, t, system)
    emission = emission_batch(p, o, h, t, system)
    for name, values in (("cost", cost), ("emission", emission)):
        bad = len(values) - np.count_nonzero(np.isfinite(values))
        if bad:
            raise ValueError(f"{name} is not finite in {bad} of {len(values)} "
                             "row(s): the system's objective coefficients "
                             "overflow inside its operating range")
    p_res, h_res = balance_residuals_batch(p, o, h, t,
                                           loss_batch(p, o, system), system)
    return PopulationEval(genes=g, cost=cost, emission=emission,
                          violation=np.abs(p_res) + np.abs(h_res))
