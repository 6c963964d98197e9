"""Dispatch problem model: unit types, system definitions, objectives.

A system holds three unit classes. Power-only units have a polynomial fuel
cost (optionally cubic) with a rectified-sine valve-point ripple and a
quadratic-plus-exponential emission curve. Cogeneration units produce power
and heat jointly inside a convex feasible operating region, with bilinear
cost coupling and emission linear in power. Heat-only units are quadratic
in heat. Network loss is a quadratic form over the electric outputs in
which the power-only x cogeneration cross block is counted once.

All evaluation routines are pure; batch variants operate on (M, n) arrays
and the single-vector API wraps them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .geometry import ForPolygon

BUNDLED_SYSTEMS = ("system1", "system2", "system3")


class SystemLoadError(ValueError):
    """Raised when a system definition file fails validation."""


@dataclass(frozen=True)
class PowerOnlyUnit:
    p_min: float
    p_max: float
    cost_const: float = 0.0
    cost_linear: float = 0.0
    cost_quad: float = 0.0
    cost_cubic: float = 0.0
    valve_amp: float = 0.0
    valve_freq: float = 0.0
    em_const: float = 0.0
    em_linear: float = 0.0
    em_quad: float = 0.0
    em_exp_coeff: float = 0.0
    em_exp_rate: float = 0.0
    co2_linear: float = 0.0

    def __post_init__(self):
        if not 0 <= self.p_min < self.p_max:
            raise ValueError(f"power unit bounds invalid: [{self.p_min}, {self.p_max}]")
        if self.valve_amp < 0:
            raise ValueError("valve_amp must be non-negative")


@dataclass(frozen=True, eq=False)
class CogenUnit:
    region: ForPolygon
    cost_const: float = 0.0
    cost_p_linear: float = 0.0
    cost_p_quad: float = 0.0
    cost_h_linear: float = 0.0
    cost_h_quad: float = 0.0
    cost_cross: float = 0.0
    em_linear: float = 0.0
    co2_linear: float = 0.0


@dataclass(frozen=True)
class HeatOnlyUnit:
    h_min: float
    h_max: float
    cost_const: float = 0.0
    cost_linear: float = 0.0
    cost_quad: float = 0.0
    em_linear: float = 0.0
    co2_linear: float = 0.0

    def __post_init__(self):
        if not 0 <= self.h_min < self.h_max:
            raise ValueError(f"heat unit bounds invalid: [{self.h_min}, {self.h_max}]")


@dataclass(frozen=True, eq=False)
class LossModel:
    b_matrix: np.ndarray
    b0_vector: np.ndarray
    b00: float
    enabled: bool = True

    def __post_init__(self):
        b = np.asarray(self.b_matrix, float)
        b0 = np.asarray(self.b0_vector, float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("loss b matrix must be square")
        if not np.allclose(b, b.T, atol=1e-12, rtol=0.0):
            raise ValueError("loss b matrix must be symmetric")
        if b0.shape != (b.shape[0],):
            raise ValueError("loss b0 length must match b dimension")
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "b0_vector", b0)


@dataclass(frozen=True, eq=False)
class SystemDefinition:
    power_units: tuple[PowerOnlyUnit, ...]
    cogen_units: tuple[CogenUnit, ...]
    heat_units: tuple[HeatOnlyUnit, ...]
    power_demand: float
    heat_demand: float
    loss: LossModel | None = None
    name: str = "system"

    def __post_init__(self):
        if not (self.power_units or self.cogen_units or self.heat_units):
            raise ValueError("system needs at least one unit")
        if self.power_demand < 0 or self.heat_demand < 0:
            raise ValueError("demands must be non-negative")
        n_elec = len(self.power_units) + len(self.cogen_units)
        if self.loss is not None and self.loss.enabled:
            if self.loss.b_matrix.shape[0] != n_elec:
                raise ValueError(
                    f"loss b matrix is {self.loss.b_matrix.shape[0]}x"
                    f"{self.loss.b_matrix.shape[0]} but the system has "
                    f"{n_elec} electric units"
                )

    @property
    def n_power(self) -> int:
        return len(self.power_units)

    @property
    def n_cogen(self) -> int:
        return len(self.cogen_units)

    @property
    def n_heat(self) -> int:
        return len(self.heat_units)

    @property
    def n_genes(self) -> int:
        return self.n_power + 2 * self.n_cogen + self.n_heat

    @property
    def loss_enabled(self) -> bool:
        return self.loss is not None and self.loss.enabled

    def gene_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box bounds of the decision vector, ordered as
        (power-only outputs, cogen powers, cogen heats, heat-only outputs).
        Cogen bounds are the bounding box of the operating region."""
        lower: list[float] = []
        upper: list[float] = []
        for u in self.power_units:
            lower.append(u.p_min)
            upper.append(u.p_max)
        for u in self.cogen_units:
            lo, hi = u.region.power_range
            lower.append(lo)
            upper.append(hi)
        for u in self.cogen_units:
            lo, hi = u.region.heat_range
            lower.append(lo)
            upper.append(hi)
        for u in self.heat_units:
            lower.append(u.h_min)
            upper.append(u.h_max)
        return np.array(lower), np.array(upper)

    def split_genes(self, genes: np.ndarray):
        """Slice an (M, n_genes) array into (P, O, H, T) views."""
        g = np.atleast_2d(genes)
        if g.shape[1] != self.n_genes:
            raise ValueError(
                f"gene vector has {g.shape[1]} entries, system needs {self.n_genes}"
            )
        np_, nc = self.n_power, self.n_cogen
        p = g[:, :np_]
        o = g[:, np_:np_ + nc]
        h = g[:, np_ + nc:np_ + 2 * nc]
        t = g[:, np_ + 2 * nc:]
        return p, o, h, t


@dataclass(frozen=True, eq=False)
class DispatchVector:
    """One candidate dispatch: per-unit power and heat setpoints."""
    p: np.ndarray
    o: np.ndarray
    h: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        for name in ("p", "o", "h", "t"):
            arr = np.asarray(getattr(self, name), float).ravel()
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"dispatch entries in '{name}' must be finite")
            object.__setattr__(self, name, arr)
        if len(self.o) != len(self.h):
            raise ValueError("cogen power and heat vectors must have equal length")

    @classmethod
    def from_genes(cls, genes: np.ndarray, system: SystemDefinition) -> "DispatchVector":
        p, o, h, t = system.split_genes(np.asarray(genes, float)[None, :])
        return cls(p=p[0].copy(), o=o[0].copy(), h=h[0].copy(), t=t[0].copy())

    def to_genes(self) -> np.ndarray:
        return np.concatenate([self.p, self.o, self.h, self.t])


@dataclass(frozen=True)
class Evaluation:
    cost: float
    emission: float
    loss: float
    power_residual: float
    heat_residual: float
    capacity_violation: float


def _check_dims(x: DispatchVector, system: SystemDefinition) -> None:
    if (
        len(x.p) != system.n_power
        or len(x.o) != system.n_cogen
        or len(x.h) != system.n_cogen
        or len(x.t) != system.n_heat
    ):
        raise ValueError(
            f"dispatch dimensions ({len(x.p)}, {len(x.o)}, {len(x.h)}, {len(x.t)}) "
            f"do not match system ({system.n_power}, {system.n_cogen}, "
            f"{system.n_cogen}, {system.n_heat})"
        )


# ---------------------------------------------------------------------------
# Batch evaluation primitives.
# ---------------------------------------------------------------------------

def cost_batch(p, o, h, t, system: SystemDefinition) -> np.ndarray:
    total = np.zeros(p.shape[0] if p.ndim == 2 else o.shape[0])
    for j, u in enumerate(system.power_units):
        pj = p[:, j]
        total += u.cost_const + u.cost_linear * pj + u.cost_quad * pj * pj
        if u.cost_cubic:
            total += u.cost_cubic * pj ** 3
        if u.valve_amp:
            total += np.abs(u.valve_amp * np.sin(u.valve_freq * (u.p_min - pj)))
    for j, u in enumerate(system.cogen_units):
        oj = o[:, j]
        hj = h[:, j]
        total += (
            u.cost_const
            + u.cost_p_linear * oj
            + u.cost_p_quad * oj * oj
            + u.cost_h_linear * hj
            + u.cost_h_quad * hj * hj
            + u.cost_cross * oj * hj
        )
    for j, u in enumerate(system.heat_units):
        tj = t[:, j]
        total += u.cost_const + u.cost_linear * tj + u.cost_quad * tj * tj
    return total


def emission_batch(p, o, h, t, system: SystemDefinition) -> np.ndarray:
    total = np.zeros(p.shape[0] if p.ndim == 2 else o.shape[0])
    for j, u in enumerate(system.power_units):
        pj = p[:, j]
        total += u.em_const + u.em_linear * pj + u.em_quad * pj * pj
        if u.em_exp_coeff:
            total += u.em_exp_coeff * np.exp(u.em_exp_rate * pj)
        if u.co2_linear:
            total += u.co2_linear * pj
    for j, u in enumerate(system.cogen_units):
        total += (u.em_linear + u.co2_linear) * o[:, j]
    for j, u in enumerate(system.heat_units):
        total += (u.em_linear + u.co2_linear) * t[:, j]
    return total


def loss_batch(p, o, system: SystemDefinition) -> np.ndarray:
    """Network loss per dispatch row. The quadratic form runs over the
    concatenated electric vector with the power x cogen cross block counted
    once, plus the linear term and the constant."""
    m = p.shape[0] if p.ndim == 2 else o.shape[0]
    if not system.loss_enabled:
        return np.zeros(m)
    lm = system.loss
    np_ = system.n_power
    bpp = lm.b_matrix[:np_, :np_]
    bpc = lm.b_matrix[:np_, np_:]
    bcc = lm.b_matrix[np_:, np_:]
    total = np.einsum("mi,ij,mj->m", p, bpp, p)
    total += np.einsum("mi,ij,mj->m", p, bpc, o)
    total += np.einsum("mi,ij,mj->m", o, bcc, o)
    g = np.hstack([p, o])
    total += g @ lm.b0_vector
    return total + lm.b00


def capacity_violation_batch(p, o, h, t, system: SystemDefinition) -> np.ndarray:
    total = np.zeros(p.shape[0] if p.ndim == 2 else o.shape[0])
    for j, u in enumerate(system.power_units):
        pj = p[:, j]
        total += np.clip(u.p_min - pj, 0.0, None) + np.clip(pj - u.p_max, 0.0, None)
    for j, u in enumerate(system.heat_units):
        tj = t[:, j]
        total += np.clip(u.h_min - tj, 0.0, None) + np.clip(tj - u.h_max, 0.0, None)
    for j, u in enumerate(system.cogen_units):
        pts = np.column_stack([o[:, j], h[:, j]])
        total += u.region.distance_outside_many(pts)
    return total


# ---------------------------------------------------------------------------
# Single-dispatch API.
# ---------------------------------------------------------------------------

def total_cost(x: DispatchVector, system: SystemDefinition) -> float:
    _check_dims(x, system)
    return float(cost_batch(x.p[None, :], x.o[None, :], x.h[None, :], x.t[None, :], system)[0])


def total_emission(x: DispatchVector, system: SystemDefinition) -> float:
    _check_dims(x, system)
    return float(emission_batch(x.p[None, :], x.o[None, :], x.h[None, :], x.t[None, :], system)[0])


def transmission_loss(x: DispatchVector, system: SystemDefinition) -> float:
    _check_dims(x, system)
    return float(loss_batch(x.p[None, :], x.o[None, :], system)[0])


def _residuals(x: DispatchVector, system: SystemDefinition, p_l: float):
    power_res = float(x.p.sum() + x.o.sum() - system.power_demand - p_l)
    heat_res = float(x.h.sum() + x.t.sum() - system.heat_demand)
    return power_res, heat_res


def balance_residuals(x: DispatchVector, system: SystemDefinition) -> tuple[float, float]:
    """(power residual, heat residual); both zero for a feasible dispatch."""
    return _residuals(x, system, transmission_loss(x, system))


def capacity_violation(x: DispatchVector, system: SystemDefinition) -> float:
    _check_dims(x, system)
    return float(
        capacity_violation_batch(x.p[None, :], x.o[None, :], x.h[None, :], x.t[None, :], system)[0]
    )


def evaluate(x: DispatchVector, system: SystemDefinition) -> Evaluation:
    loss = transmission_loss(x, system)
    p_res, h_res = _residuals(x, system, loss)
    return Evaluation(
        cost=total_cost(x, system),
        emission=total_emission(x, system),
        loss=loss,
        power_residual=p_res,
        heat_residual=h_res,
        capacity_violation=capacity_violation(x, system),
    )


# ---------------------------------------------------------------------------
# System file loading.
# ---------------------------------------------------------------------------

_POWER_KEYS = {
    "p_min", "p_max", "cost_const", "cost_linear", "cost_quad", "cost_cubic",
    "valve_amp", "valve_freq", "em_const", "em_linear", "em_quad",
    "em_exp_coeff", "em_exp_rate", "co2_linear",
}
_COGEN_KEYS = {
    "region", "cost_const", "cost_p_linear", "cost_p_quad", "cost_h_linear",
    "cost_h_quad", "cost_cross", "em_linear", "co2_linear",
}
_HEAT_KEYS = {
    "h_min", "h_max", "cost_const", "cost_linear", "cost_quad",
    "em_linear", "co2_linear",
}


def _require_finite(label: str, value) -> None:
    try:
        finite = bool(np.all(np.isfinite(np.asarray(value, float))))
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise SystemLoadError(f"{label} must be finite")


def _build_unit(entry: dict, allowed: set, cls, label: str):
    if not isinstance(entry, dict):
        raise SystemLoadError(f"{label} entry must be an object")
    unknown = set(entry) - allowed
    if unknown:
        raise SystemLoadError(f"{label} has unknown field(s): {sorted(unknown)}")
    for key, value in entry.items():
        if key != "region":
            _require_finite(f"{label}.{key}", value)
    kwargs = dict(entry)
    if "region" in kwargs:
        try:
            kwargs["region"] = ForPolygon(kwargs["region"])
        except ValueError as exc:
            raise SystemLoadError(f"{label} region: {exc}") from exc
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SystemLoadError(f"{label}: {exc}") from exc


def load_system(path_or_name) -> SystemDefinition:
    """Load and validate a system definition.

    Accepts a filesystem path or the name of a bundled system
    ("system1", "system2", "system3").
    """
    name = str(path_or_name)
    if name in BUNDLED_SYSTEMS:
        text = resources.files("chpdispatch.data").joinpath(f"{name}.json").read_text()
    else:
        path = Path(path_or_name)
        if not path.exists():
            raise SystemLoadError(f"system file not found: {path}")
        text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemLoadError(f"system file is not valid JSON: {exc}") from exc

    demand = data.get("demand")
    if not isinstance(demand, dict) or "power" not in demand or "heat" not in demand:
        raise SystemLoadError("demand section must provide 'power' and 'heat'")
    for key in ("power", "heat"):
        _require_finite(f"demand.{key}", demand[key])

    power_units = tuple(
        _build_unit(e, _POWER_KEYS, PowerOnlyUnit, f"power_units[{i}]")
        for i, e in enumerate(data.get("power_units", []))
    )
    cogen_units = tuple(
        _build_unit(e, _COGEN_KEYS, CogenUnit, f"cogen_units[{i}]")
        for i, e in enumerate(data.get("cogen_units", []))
    )
    heat_units = tuple(
        _build_unit(e, _HEAT_KEYS, HeatOnlyUnit, f"heat_units[{i}]")
        for i, e in enumerate(data.get("heat_units", []))
    )

    loss_entry = data.get("loss")
    loss = None
    if loss_entry and loss_entry.get("enabled", False):
        for key in ("b", "b0", "b00"):
            if key not in loss_entry:
                raise SystemLoadError(f"loss section is enabled but missing '{key}'")
        scale_b = float(loss_entry.get("scale_b", 1.0))
        scale_b0 = float(loss_entry.get("scale_b0", 1.0))
        with np.errstate(over="ignore"):
            b = np.asarray(loss_entry["b"], float) * scale_b
            b0 = np.asarray(loss_entry["b0"], float) * scale_b0
        b00 = float(loss_entry["b00"])
        # after scaling, so an overflowing scale is caught too
        for key, value in (("b", b), ("b0", b0), ("b00", b00)):
            _require_finite(f"loss {key}", value)
        try:
            loss = LossModel(b_matrix=b, b0_vector=b0, b00=b00, enabled=True)
        except ValueError as exc:
            raise SystemLoadError(f"loss: {exc}") from exc

    try:
        return SystemDefinition(
            power_units=power_units,
            cogen_units=cogen_units,
            heat_units=heat_units,
            power_demand=float(demand["power"]),
            heat_demand=float(demand["heat"]),
            loss=loss,
            name=data.get("name", Path(name).stem),
        )
    except ValueError as exc:
        raise SystemLoadError(str(exc)) from exc
