"""Constraint handling: repair toward the feasible set, then measure what
is left.

Repair order matters. Box clamping and region projection first, so the
slack adjustments below start from capacity-feasible points. The heat
balance is closed through a designated heat-only slack unit. The power
balance is closed through a designated power-only slack unit; with network
loss active the slack output appears on both sides of the balance, so it
is solved by fixed-point iteration (the loss surface is shallow in any
single output, so the iteration contracts fast).

Slack units are restricted to power-only and heat-only units. When a slack
hits its box bound and cannot close the balance alone, the leftover is
spread proportionally over the remaining outputs within their own feasible
room: box room for power-only and heat-only units, and for cogeneration
units the feasible interval of the moved coordinate at the fixed value of
the other one. A single-coordinate move inside that interval cannot leave
the convex operating region, so redistribution never undoes the projection
step. Whatever residual survives every room is reported as the row's
constraint violation: balance residuals plus capacity excess. Selection
compares raw objectives and treats that violation as a separate layer
(lower violation wins first); no weighted penalty is added to either
objective.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import DispatchVector, SystemDefinition, capacity_violation_batch, \
    cost_batch, emission_batch, loss_batch

_MODES = ("repair_then_penalty", "penalty_only")


@dataclass(frozen=True)
class ConstraintConfig:
    mode: str = "repair_then_penalty"
    power_slack_index: int | None = None
    heat_slack_index: int | None = None
    loss_fixed_point_tol: float = 1e-6
    loss_fixed_point_max_iters: int = 50

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.loss_fixed_point_tol <= 0:
            raise ValueError("loss_fixed_point_tol must be positive")
        if self.loss_fixed_point_max_iters < 1:
            raise ValueError("loss_fixed_point_max_iters must be at least 1")


def resolve_slack_units(system: SystemDefinition, cfg: ConstraintConfig):
    """(power slack index, heat slack index); defaults pick the largest unit."""
    picked = []
    for kind, k, caps in (
            ("power", cfg.power_slack_index, [u.p_max for u in system.power_units]),
            ("heat", cfg.heat_slack_index, [u.h_max for u in system.heat_units])):
        if k is None and caps:
            k = int(np.argmax(caps))
        if k is not None and not 0 <= k < len(caps):
            raise ValueError(
                f"{kind}_slack_index {k} out of range for {len(caps)} {kind} unit(s)")
        picked.append(k)
    return tuple(picked)


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
    fixed coordinate, clamped into the region's range of that coordinate."""
    room = np.zeros((rows.size, system.n_cogen))
    for j, u in enumerate(system.cogen_units):
        if heat:
            (lo, hi), chord = u.region.power_range, u.region.heat_bounds_at_power
        else:
            (lo, hi), chord = u.region.heat_range, u.region.power_bounds_at_heat
        for k, m in enumerate(rows):
            b = chord(min(max(fixed[m, j], lo), hi))
            if b is not None:
                room[k, j] = b[1] - moved[m, j] if upward else moved[m, j] - b[0]
    return np.clip(room, 0.0, None)


def _spread_leftover(leftover, out, lo, hi, k, moved, fixed, system, heat):
    """Absorb what slack column k of `out` could not, by moving the other
    columns of `out` within their boxes [lo, hi] and the cogen coordinate
    `moved` along its chords, in proportion to their room. Returns the
    largest single move."""
    largest = 0.0
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
        largest = max(largest, float(moves.max()))
    return largest


def _close_heat_balance(o, h, t, system, hk):
    """Set the heat slack so total heat meets demand; spread what the
    slack cannot absorb over the other heat outputs."""
    u = system.heat_units[hk]
    need = system.heat_demand - h.sum(axis=1) - (t.sum(axis=1) - t[:, hk])
    t[:, hk] = np.clip(need, u.h_min, u.h_max)
    lo = np.array([hu.h_min for hu in system.heat_units])
    hi = np.array([hu.h_max for hu in system.heat_units])
    _spread_leftover(need - t[:, hk], t, lo, hi, hk, h, o, system, heat=True)


def _close_power_balance(p, o, h, system, pk, cfg):
    """Set the power slack so generation meets demand plus loss, spreading
    what the slack cannot absorb; with loss active this is a fixed point
    because the loss itself moves with the outputs."""
    u = system.power_units[pk]
    lo = np.array([pu.p_min for pu in system.power_units])
    hi = np.array([pu.p_max for pu in system.power_units])
    delta = np.inf
    for _ in range(cfg.loss_fixed_point_max_iters):
        others = p.sum(axis=1) - p[:, pk] + o.sum(axis=1)
        need = system.power_demand + loss_batch(p, o, system) - others
        new = np.clip(need, u.p_min, u.p_max)
        delta = float(np.abs(new - p[:, pk]).max())
        p[:, pk] = new
        delta = max(delta, _spread_leftover(need - new, p, lo, hi, pk, o, h,
                                            system, heat=False))
        if not system.loss_enabled or delta < 1e-14:
            break
    if system.loss_enabled and delta > cfg.loss_fixed_point_tol:
        warnings.warn(
            "power balance fixed point stopped after "
            f"{cfg.loss_fixed_point_max_iters} iteration(s); last change "
            f"{delta:.3g} MW",
            RuntimeWarning,
            stacklevel=2,
        )


def repair_batch(genes: np.ndarray, system: SystemDefinition,
                 cfg: ConstraintConfig) -> np.ndarray:
    """Repair an (M, n_genes) array. Returns a new array."""
    lower, upper = system.gene_bounds()
    g = np.clip(np.atleast_2d(np.asarray(genes, float)), lower, upper)
    p, o, h, t = system.split_genes(g)

    for j, u in enumerate(system.cogen_units):
        pts = np.column_stack([o[:, j], h[:, j]])
        proj, dist = u.region.project_many(pts)
        outside = dist > 0
        if np.any(outside):
            o[outside, j] = proj[outside, 0]
            h[outside, j] = proj[outside, 1]

    pk, hk = resolve_slack_units(system, cfg)
    # Power redistribution moves cogen powers, which changes the heat room
    # available along the region chords, so the pair is iterated to a
    # joint fixed point (heat moves never disturb the power balance, so
    # two passes normally settle it).
    for _ in range(4):
        before = g.copy()
        if hk is not None:
            _close_heat_balance(o, h, t, system, hk)
        if pk is not None:
            _close_power_balance(p, o, h, system, pk, cfg)
        if np.abs(g - before).max() < 1e-12:
            break
    return g


def repair(x: DispatchVector, system: SystemDefinition,
           cfg: ConstraintConfig) -> DispatchVector:
    repaired = repair_batch(x.to_genes()[None, :], system, cfg)
    return DispatchVector.from_genes(repaired[0], system)


@dataclass(frozen=True, eq=False)
class PopulationEval:
    """Evaluation of a gene batch after constraint handling.

    genes are the (possibly repaired) dispatches and cost/emission their
    raw objective values. violation is the absolute power and heat balance
    residuals plus the capacity excess; the engines compare it as a layer
    ahead of the objectives, so nothing is folded into cost or emission.
    """
    genes: np.ndarray
    cost: np.ndarray
    emission: np.ndarray
    violation: np.ndarray


def evaluate_batch(genes: np.ndarray, system: SystemDefinition,
                   cfg: ConstraintConfig) -> PopulationEval:
    g = np.atleast_2d(np.asarray(genes, float))
    if cfg.mode == "repair_then_penalty":
        g = repair_batch(g, system, cfg)
    p, o, h, t = system.split_genes(g)

    cost = cost_batch(p, o, h, t, system)
    emission = emission_batch(p, o, h, t, system)
    p_res = p.sum(axis=1) + o.sum(axis=1) - system.power_demand \
        - loss_batch(p, o, system)
    h_res = h.sum(axis=1) + t.sum(axis=1) - system.heat_demand
    violation = np.abs(p_res) + np.abs(h_res) \
        + capacity_violation_batch(p, o, h, t, system)
    return PopulationEval(genes=g, cost=cost, emission=emission,
                          violation=violation)
