"""Combined heat and power dispatch optimization toolkit."""

from .constraints import repair_batch
from .engine import EngineConfig, FrontArchive, run
from .geometry import ForPolygon
from .metrics import (NormalizationBounds, eaf_surfaces, hv_metric,
                      hypervolume_2d, spread_delta, wilcoxon_signed_rank)
from .model import (CogenUnit, DispatchVector, Evaluation, HeatOnlyUnit,
                    LossModel, PowerOnlyUnit, SystemDefinition,
                    SystemLoadError, evaluate, load_system)
from .cli import (ExperimentConfig, emit_reports, load_experiment,
                  run_experiment)

__version__ = "0.1.0"

__all__ = [
    "CogenUnit", "DispatchVector", "EngineConfig", "Evaluation",
    "ExperimentConfig", "ForPolygon", "FrontArchive", "HeatOnlyUnit",
    "LossModel", "NormalizationBounds", "PowerOnlyUnit", "SystemDefinition",
    "SystemLoadError", "eaf_surfaces", "emit_reports", "evaluate",
    "hv_metric", "hypervolume_2d", "load_experiment", "load_system",
    "repair_batch", "run", "run_experiment", "spread_delta",
    "wilcoxon_signed_rank",
]
