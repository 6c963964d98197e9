"""Dispatch problem model: unit types, system definitions, objectives.

A system holds three unit classes. Power-only units have a polynomial fuel
cost (optionally cubic) with a rectified-sine valve-point ripple and a
quadratic-plus-exponential emission curve. Cogeneration units produce power
and heat jointly inside a convex feasible operating region, with bilinear
cost coupling and emission linear in power. Heat-only units are quadratic
in heat. Network loss is a quadratic form over the electric outputs in
which the power-only x cogeneration cross block is counted once.

All evaluation routines are pure and operate on (M, n) arrays of
dispatch rows; `evaluate` runs them on a one-row batch for a single
DispatchVector.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .geometry import ForPolygon, RegionTable

BUNDLED_SYSTEMS = ("system1", "system2", "system3")


class SystemLoadError(ValueError):
    """Raised when a system definition file fails validation."""


def check_section(data, label: str, allowed, required=()) -> None:
    """Refuse a JSON section that is not an object, holds a key outside
    allowed (any key passes when allowed is None) or lacks a required key;
    the message names label and the key."""
    if not isinstance(data, dict):
        raise SystemLoadError(f"{label} must hold a JSON object")
    unknown = set(data) - set(data if allowed is None else allowed)
    if unknown:
        raise SystemLoadError(f"{label} has unknown field(s): {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise SystemLoadError(f"{label} is missing '{key}'")


@cache
def dataclass_keys(cls) -> tuple[frozenset, tuple]:
    """(field names, names of the fields without a default) of a dataclass,
    once per class: the keys a JSON section that builds it may and must hold."""
    return (frozenset(f.name for f in fields(cls)),
            tuple(f.name for f in fields(cls)
                  if f.default is MISSING and f.default_factory is MISSING))


def require_integers(obj, names) -> None:
    """Refuse a field of obj named in names that is not an int or is a bool."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, not {value!r}")


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
        # repair closes each balance through a slack unit of that kind
        if self.heat_demand > 0 and not self.heat_units:
            raise ValueError("heat demand is positive but the system has no "
                             "heat-only unit to close the heat balance")
        if self.power_demand > 0 and not self.power_units:
            raise ValueError("power demand is positive but the system has no "
                             "power-only unit to close the power balance")
        n_elec = len(self.power_units) + len(self.cogen_units)
        if self.loss is not None:
            if self.loss.b_matrix.shape[0] != n_elec:
                raise ValueError(
                    f"loss b matrix is {self.loss.b_matrix.shape[0]}x"
                    f"{self.loss.b_matrix.shape[0]} but the system has "
                    f"{n_elec} electric units"
                )
            _check_loss_sign(self)

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
        return self.loss is not None

    @cached_property
    def loss_weights(self) -> np.ndarray:
        """Upper-triangular weights w of the loss's quadratic part,
        sum over i <= j of w_ij x_i x_j, with x the electric outputs
        (power-only units first). Inside the power-only and the cogeneration
        block w_ij = B_ij + B_ji; across them w_ij = B_ij, the cross block
        counted once. Read-only."""
        b = self.loss.b_matrix
        w = np.triu(b + b.T, 1)
        w[:self.n_power, self.n_power:] = b[:self.n_power, self.n_power:]
        np.fill_diagonal(w, np.diag(b))
        w.setflags(write=False)
        return w

    @cached_property
    def region_table(self) -> RegionTable:
        """The cogeneration regions in one RegionTable, column j for
        cogeneration unit j. Read-only."""
        return RegionTable([u.region.vertices for u in self.cogen_units])

    def gene_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box bounds of the decision vector, ordered as
        (power-only outputs, cogen powers, cogen heats, heat-only outputs).
        Cogen bounds are the bounding box of the operating region.
        Read-only, built once per system."""
        return self._gene_box

    @cached_property
    def _gene_box(self) -> tuple[np.ndarray, np.ndarray]:
        ranges = [(u.p_min, u.p_max) for u in self.power_units] \
            + [u.region.power_range for u in self.cogen_units] \
            + [u.region.heat_range for u in self.cogen_units] \
            + [(u.h_min, u.h_max) for u in self.heat_units]
        box = np.array(ranges, float).T.copy()
        box.setflags(write=False)
        return box[0], box[1]

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


def _check_loss_sign(system: "SystemDefinition") -> None:
    """Reject a loss that can go negative on the electric gene box. Its
    quadratic part, with the power x cogen cross block halved as loss_batch
    counts it, must be positive semidefinite, and its minimum over the box,
    a convex box QP solved here by coordinate descent, must not be below
    zero."""
    w = system.loss_weights
    q = (w + w.T) / 2.0
    eig = np.linalg.eigvalsh(q)
    if eig.min() < -1e-10 * np.abs(eig).max():
        raise ValueError("loss quadratic part is not positive semidefinite "
                         f"(smallest eigenvalue {eig.min():.3g})")
    n = len(q)
    lower, upper = system.gene_bounds()
    lo, hi = lower[:n], upper[:n]
    lin = system.loss.b0_vector
    x = lo.copy()
    for _ in range(1000):
        moved = 0.0
        for i in range(n):
            slope = lin[i] + 2.0 * (q[i] @ x - q[i, i] * x[i])
            if q[i, i] > 0.0:
                xi = min(max(-slope / (2.0 * q[i, i]), lo[i]), hi[i])
            else:
                xi = lo[i] if slope > 0.0 else hi[i] if slope < 0.0 else x[i]
            moved = max(moved, abs(xi - x[i]))
            x[i] = xi
        if moved <= 1e-12 * (1.0 + np.abs(hi).max()):
            break
    least = float(x @ q @ x + lin @ x + system.loss.b00)
    if least < -1e-9:
        raise ValueError(f"loss is negative on the electric gene box: minimum "
                         f"{least:.6g} MW at {np.round(x, 6).tolist()}")


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


# ---------------------------------------------------------------------------
# Batch evaluation primitives.
# ---------------------------------------------------------------------------

def cost_batch(p, o, h, t, system: SystemDefinition) -> np.ndarray:
    total = np.zeros(p.shape[0])
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
    total = np.zeros(p.shape[0])
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


def _electric_columns(p, o) -> list:
    return [p[:, i] for i in range(p.shape[1])] + [o[:, j] for j in range(o.shape[1])]


def _loss_rows(m: int, x: list, w: np.ndarray, lin, const: float) -> np.ndarray:
    """const + sum_i (lin_i + sum_{j >= i} w_ij x_j) x_i for each of m rows,
    x a list of columns. Terms are added one column at a time in a fixed
    order, so a row's value never depends on the other rows of the batch
    (a matrix product or einsum may round differently with the batch
    size)."""
    total = np.zeros(m)
    for i, xi in enumerate(x):
        acc = w[i, i] * xi + lin[i]
        for j in range(i + 1, len(x)):
            acc += w[i, j] * x[j]
        total += acc * xi
    return total + const


def loss_batch(p, o, system: SystemDefinition) -> np.ndarray:
    """Network loss per dispatch row. The quadratic form runs over the
    concatenated electric vector with the power x cogen cross block counted
    once, plus the linear term and the constant."""
    if not system.loss_enabled:
        return np.zeros(p.shape[0])
    lm = system.loss
    return _loss_rows(p.shape[0], _electric_columns(p, o), system.loss_weights,
                      lm.b0_vector, lm.b00)


def loss_in_power_output(p, o, system: SystemDefinition, k: int):
    """The loss as a quadratic in power-only output k with every other
    output held: (a, b, c) with loss = a x^2 + b x + c at x = p[:, k].
    a is a scalar, b and c are per row; built from the B coefficients
    column by column, like loss_batch."""
    lm = system.loss
    x = _electric_columns(p, o)
    w = system.loss_weights
    rest = [i for i in range(len(x)) if i != k]
    b = np.full(len(x[k]), lm.b0_vector[k])
    for j in rest:
        b += w[min(j, k), max(j, k)] * x[j]
    c = _loss_rows(len(x[k]), [x[i] for i in rest], w[np.ix_(rest, rest)],
                   lm.b0_vector[rest], lm.b00)
    return w[k, k], b, c


def balance_residuals_batch(p, o, h, t, loss, system: SystemDefinition):
    """(power, heat) balance residuals per row, given each row's loss."""
    return (p.sum(axis=1) + o.sum(axis=1) - system.power_demand - loss,
            h.sum(axis=1) + t.sum(axis=1) - system.heat_demand)


def capacity_violation_batch(p, o, h, t, system: SystemDefinition) -> np.ndarray:
    total = np.zeros(p.shape[0])
    for j, u in enumerate(system.power_units):
        pj = p[:, j]
        total += np.clip(u.p_min - pj, 0.0, None) + np.clip(pj - u.p_max, 0.0, None)
    for j, u in enumerate(system.heat_units):
        tj = t[:, j]
        total += np.clip(u.h_min - tj, 0.0, None) + np.clip(tj - u.h_max, 0.0, None)
    for j, u in enumerate(system.cogen_units):
        pts = np.column_stack([o[:, j], h[:, j]])
        total += u.region.project_many(pts)[1]
    return total


def evaluate(x: DispatchVector, system: SystemDefinition) -> Evaluation:
    """Objectives, loss, balance residuals and capacity violation of one
    unrepaired dispatch, from the batch functions on a one-row batch."""
    dims = (len(x.p), len(x.o), len(x.h), len(x.t))
    want = (system.n_power, system.n_cogen, system.n_cogen, system.n_heat)
    if dims != want:
        raise ValueError(f"dispatch dimensions {dims} do not match system {want}")
    p, o, h, t = x.p[None, :], x.o[None, :], x.h[None, :], x.t[None, :]
    loss = loss_batch(p, o, system)
    p_res, h_res = balance_residuals_batch(p, o, h, t, loss, system)
    return Evaluation(
        cost=float(cost_batch(p, o, h, t, system)[0]),
        emission=float(emission_batch(p, o, h, t, system)[0]),
        loss=float(loss[0]),
        power_residual=float(p_res[0]),
        heat_residual=float(h_res[0]),
        capacity_violation=float(capacity_violation_batch(p, o, h, t, system)[0]),
    )


# ---------------------------------------------------------------------------
# System file loading.
# ---------------------------------------------------------------------------

_SYSTEM_KEYS = ("name", "description", "demand", "power_units",
                "cogen_units", "heat_units", "loss")
# each loss key with the array depth of its value; 'enabled' is a boolean
_LOSS_NDIM = {"enabled": None, "scale_b": 0, "scale_b0": 0, "b": 2, "b0": 1,
              "b00": 0}
_SHAPES = ("a number", "a list of numbers", "a matrix of numbers")


def _numbers(value, ndim: int):
    """value as an array if it is a number (ndim 0) or an ndim-deep
    rectangular list of numbers, else None; JSON true, false and strings
    are not numbers, also in a list numpy would read as numbers."""
    try:
        a = np.asarray(value)
    except ValueError:            # a ragged list
        return None
    bools = any(type(x) is bool for x in np.asarray(value, object).flat)
    return a if a.ndim == ndim and a.dtype.kind in "iuf" and not bools \
        else None


def _require_finite(label: str, value, ndim: int = 0) -> None:
    """Refuse a value that is not a finite number (ndim 0) or an ndim-deep
    rectangular array of them."""
    a = _numbers(value, ndim)
    if a is None or not np.isfinite(a).all():
        raise SystemLoadError(f"{label} must be finite ({_SHAPES[ndim]})")


def _build_unit(entry, cls, label: str):
    check_section(entry, label, *dataclass_keys(cls))
    for key, value in entry.items():
        if key != "region":
            _require_finite(f"{label}.{key}", value)
    kwargs = dict(entry)
    if "region" in kwargs:
        if _numbers(kwargs["region"], 2) is None:
            raise SystemLoadError(f"{label}.region must be {_SHAPES[2]}")
        try:
            kwargs["region"] = ForPolygon(kwargs["region"])
        except ValueError as exc:
            raise SystemLoadError(f"{label} region: {exc}") from exc
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SystemLoadError(f"{label}: {exc}") from exc


def _build_loss(section) -> LossModel | None:
    """The loss model of a system file's loss section; None unless enabled."""
    check_section(section, "loss", _LOSS_NDIM)
    enabled = section.get("enabled", False)
    if not isinstance(enabled, bool):
        raise SystemLoadError(f"loss enabled must be true or false, not {enabled!r}")
    for key, value in section.items():
        if key != "enabled":
            _require_finite(f"loss {key}", value, _LOSS_NDIM[key])
    if not enabled:
        return None
    check_section(section, "loss", _LOSS_NDIM, ("b", "b0", "b00"))
    with np.errstate(over="ignore"):
        b = np.asarray(section["b"], float) * section.get("scale_b", 1.0)
        b0 = np.asarray(section["b0"], float) * section.get("scale_b0", 1.0)
    # after scaling, so an overflowing scale is caught too
    _require_finite("loss b", b, 2)
    _require_finite("loss b0", b0, 1)
    try:
        return LossModel(b_matrix=b, b0_vector=b0, b00=float(section["b00"]))
    except ValueError as exc:
        raise SystemLoadError(f"loss: {exc}") from exc


def _check_objectives_finite(system: SystemDefinition) -> None:
    """Refuse a unit whose cost or emission is not finite at a corner of its
    operating range: the ends of its box (power-only and heat-only units)
    or its region vertices (cogeneration units). A run would reach them and
    return non-finite objectives. Each unit is evaluated on its own."""
    alone = dict(power_units=(), cogen_units=(), heat_units=(),
                 power_demand=0.0, heat_demand=0.0, loss=None)
    for kind in ("power_units", "cogen_units", "heat_units"):
        for i, unit in enumerate(getattr(system, kind)):
            one = replace(system, **{**alone, kind: (unit,)})
            corners = unit.region.vertices if kind == "cogen_units" \
                else np.array(one.gene_bounds())
            for objective, fn in (("cost", cost_batch),
                                  ("emission", emission_batch)):
                with np.errstate(over="ignore", invalid="ignore"):
                    values = fn(*one.split_genes(corners), one)
                if not np.all(np.isfinite(values)):
                    raise SystemLoadError(
                        f"{kind}[{i}]: {objective} is not finite at a corner "
                        "of its operating range")


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
    check_section(data, "system file", _SYSTEM_KEYS, ("demand",))
    for key in ("name", "description"):
        if key in data and not isinstance(data[key], str):
            raise SystemLoadError(f"{key} must be a string, not {data[key]!r}")
    demand = data["demand"]
    check_section(demand, "demand", ("power", "heat"), ("power", "heat"))
    for key in ("power", "heat"):
        _require_finite(f"demand.{key}", demand[key])
    units = {}
    for kind, cls in (("power_units", PowerOnlyUnit), ("cogen_units", CogenUnit),
                      ("heat_units", HeatOnlyUnit)):
        entries = data.get(kind, [])
        if not isinstance(entries, list):
            raise SystemLoadError(f"{kind} must be a list of JSON objects")
        units[kind] = tuple(_build_unit(e, cls, f"{kind}[{i}]")
                            for i, e in enumerate(entries))
    loss = _build_loss(data.get("loss", {}))
    try:
        system = SystemDefinition(
            **units,
            power_demand=float(demand["power"]),
            heat_demand=float(demand["heat"]),
            loss=loss,
            name=data.get("name", Path(name).stem),
        )
    except ValueError as exc:
        raise SystemLoadError(str(exc)) from exc
    _check_objectives_finite(system)
    return system
