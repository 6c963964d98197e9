"""Combined heat and power dispatch optimization toolkit."""

from .constraints import ConstraintConfig, repair, repair_batch
from .engine import (EngineConfig, FrontArchive, dominates, ibea_run,
                     idbea_run, nsga2_run, run)
from .geometry import ForPolygon
from .metrics import (NormalizationBounds, eaf_surfaces, hv_metric,
                      hypervolume_2d, indicator_ihd, spread_delta,
                      wilcoxon_signed_rank)
from .model import (CogenUnit, DispatchVector, Evaluation, HeatOnlyUnit,
                    LossModel, PowerOnlyUnit, SystemDefinition,
                    SystemLoadError, balance_residuals, capacity_violation,
                    evaluate, load_system, total_cost, total_emission,
                    transmission_loss)
from .cli import (ExperimentConfig, RunRecord, emit_reports, load_experiment,
                  run_experiment, select_compromise)

__version__ = "0.1.0"

__all__ = [
    "CogenUnit", "ConstraintConfig", "DispatchVector", "EngineConfig",
    "Evaluation", "ExperimentConfig", "ForPolygon", "FrontArchive",
    "HeatOnlyUnit", "LossModel", "NormalizationBounds", "PowerOnlyUnit",
    "RunRecord", "SystemDefinition", "SystemLoadError", "balance_residuals",
    "capacity_violation", "dominates", "eaf_surfaces", "emit_reports",
    "evaluate", "hv_metric", "hypervolume_2d", "ibea_run", "idbea_run",
    "indicator_ihd", "load_experiment", "load_system", "nsga2_run", "repair",
    "repair_batch", "run", "run_experiment", "select_compromise",
    "spread_delta", "total_cost", "total_emission", "transmission_loss",
    "wilcoxon_signed_rank",
]
