"""hicomp: 1D degenerate-viscosity compressible flow in the highly
compressible regime, its porous-medium limit, and the measurement harness
that quantifies the convergence between them."""

from .grid import Field, Grid, antiderivative, derivative, integrate, lp_norm
from .params import PhysParams
from .pme import (
    BarenblattParams,
    PmeState,
    advance_limit,
    barenblatt_eval,
    barenblatt_field,
    barenblatt_params,
    interface_positions,
    pme_pressure,
)
from .cns import CnsState, well_prepared_init
from .analysis import (
    DiagnosticsRecord,
    DualCertificate,
    darcy_residual,
    dual_certificate,
    error_pair,
    h_minus1_norm,
    mass_outside_support,
)
from .study import (
    RateStudyResult,
    fit_loglog_slope,
    run_rate_study,
    support_study,
)
from .config import ConfigError, StudyConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "Field", "Grid", "derivative", "integrate", "antiderivative",
    "lp_norm", "PhysParams", "PmeState", "BarenblattParams",
    "barenblatt_params", "barenblatt_eval", "barenblatt_field",
    "advance_limit", "pme_pressure", "interface_positions", "CnsState", "well_prepared_init",
    "h_minus1_norm", "error_pair", "DiagnosticsRecord",
    "mass_outside_support", "darcy_residual", "DualCertificate",
    "dual_certificate", "fit_loglog_slope", "RateStudyResult",
    "run_rate_study", "support_study",
    "ConfigError", "StudyConfig", "parse_config",
]
