"""hicomp: 1D degenerate-viscosity compressible flow in the highly
compressible regime, its porous-medium limit, and the measurement harness
that quantifies the convergence between them."""

from .grid import Field, Grid, advance, antiderivative, derivative, integrate, lp_norm
from .params import PhysParams
from .pme import (
    BarenblattParams,
    PmeState,
    barenblatt_eval,
    barenblatt_field,
    barenblatt_params,
    interface_positions,
    pme_pressure,
    pme_solve_to,
    pme_step,
)
from .cns import CnsState, cfl_dt, cns_solve_to, cns_step, dx_phi, recover_u, well_prepared_init
from .analysis import (
    DiagnosticsRecord,
    DualCertificate,
    darcy_residual,
    diagnostics,
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
    "lp_norm", "advance", "PhysParams", "PmeState", "BarenblattParams", "barenblatt_params",
    "barenblatt_eval", "barenblatt_field", "pme_step", "pme_solve_to",
    "pme_pressure", "interface_positions", "CnsState", "well_prepared_init",
    "dx_phi", "recover_u", "cfl_dt", "cns_step", "cns_solve_to",
    "h_minus1_norm", "error_pair", "DiagnosticsRecord", "diagnostics",
    "mass_outside_support", "darcy_residual", "DualCertificate",
    "dual_certificate", "fit_loglog_slope", "RateStudyResult",
    "run_rate_study", "support_study",
    "ConfigError", "StudyConfig", "parse_config",
]
