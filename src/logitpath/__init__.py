"""Effect decomposition for recursive systems of binary logistic regressions.

Fit a system of logistic equations over (outcome, mediators, treatment,
covariates), then split the treatment's total effect on the outcome into
direct, indirect (global or path-specific) and residual parts, exactly, on
the log-odds or probability scale, with delta-method uncertainty and a
Monte Carlo harness for estimator comparison.
"""

from .model import (INTERCEPT, Column, ModelSpecError, ParameterSet,
                    SystemSpec, Term, VariableSpec, ZeroMask)
from .fitting import (DataError, Dataset, EquationFit, FitError,
                      FittedSystem, expit, fit_logistic, fit_system, softplus)
from .effects import (Decomposition, EffectError, EffectRequest,
                      average_probability_effects, decompose, deltas)
from .multi import (PathSpec, g_recursive, marginal_logit_multi, marginalize,
                    marginalize_inner, psie, residual_structurally_zero)
from .inference import (EffectEstimate, EffectRow, EffectTable,
                        InferenceError, delta_se, effect_table,
                        transform_fitted)
from .simulation import (MethodStats, SimConfig, SimResult, SimulationError,
                         generate_data, pseudo_population, results_to_csv,
                         run_cell, run_study, true_value)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
