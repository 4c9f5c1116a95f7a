"""Penalty-regularized elasto-plasticity with fractional-regularity probes."""

from .constitutive import (ConstitutiveState, MaterialParams, SolverFailure,
                           consistent_tangent, kkt_residual, local_update)
from .evolution import (EnergyReport, FieldHistory, energy_diagnostics, run,
                        safety_load_check)
from .fem import Cutoff, Geometry, Grid, build_grid, make_cutoff
from .probes import (ExponentTargets, ProbeReport, SeminormTable,
                     UniformityReport, alpha_exponent, beta_lambda,
                     diff_quotient, fit_exponent, interpolation_check,
                     mu_sweep, record_plan, run_probes, seminorm_table,
                     strip_gradient_norm, target_exponents)
from .scenario import (BENCHMARKS, Scenario, ScenarioError, load_benchmark,
                       parse_scenario, parse_scenario_dict, validate)
from .tensors import Tensor4Sym, check_ellipticity, penalty

__version__ = "0.1.0"

__all__ = [
    "BENCHMARKS", "ConstitutiveState", "Cutoff", "EnergyReport",
    "ExponentTargets", "FieldHistory", "Geometry", "Grid", "MaterialParams",
    "ProbeReport", "Scenario", "ScenarioError", "SeminormTable",
    "SolverFailure", "Tensor4Sym", "UniformityReport", "alpha_exponent",
    "beta_lambda", "build_grid", "check_ellipticity", "consistent_tangent",
    "diff_quotient", "energy_diagnostics", "fit_exponent",
    "interpolation_check", "kkt_residual", "load_benchmark", "local_update",
    "make_cutoff", "mu_sweep", "parse_scenario", "parse_scenario_dict",
    "penalty", "record_plan", "run", "run_probes", "safety_load_check",
    "seminorm_table", "strip_gradient_norm", "target_exponents", "validate",
]
