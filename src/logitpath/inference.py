"""Delta-method inference for scalar effect functionals of a fitted system.

The gradient of an effect is taken by central differences over the full
coefficient stack (per-coordinate step scaled to the coefficient), then
se = sqrt(g' Sigma g) with the fitted covariance.  A mediator reduction
carries its full J Sigma J', with the exact Jacobian J that
``multi._reduce`` computes beside the reduced coefficients.  Wald
intervals and two-sided normal p-values are reported on the effect's own
scale, from the standard library's normal quantile and ``math.erfc``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Iterable, Optional

import numpy as np

from .effects import (EffectRequest, _check_mediators, _check_setting,
                      _check_slope, component, component_mask,
                      component_names, indirect_name, marginal_logit_multi)
from .fitting import FittedSystem, block_covariance
from .model import ParameterSet, _is
from .multi import PathSpec, _reduce

STEP_SCALE = 1e-6


class InferenceError(RuntimeError):
    """Raised when a gradient cannot be evaluated."""


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimate with delta-method uncertainty."""

    label: str
    value: float
    se: float
    ci: tuple
    p_value: float
    level: float = 0.95


def gradient(fn: Callable, fitted: FittedSystem, label: str):
    """(value, gradient) of the scalar ``fn`` at the estimate.

    ``fn`` maps a ParameterSet to a float; its gradient with respect to
    the flat coefficient stack is taken by central differences with step
    STEP_SCALE * max(1, |coefficient|).
    """
    spec = fitted.spec
    theta = fitted.params.vector
    value = float(fn(fitted.params))
    if not math.isfinite(value):
        raise InferenceError(f"{label}: not finite at the estimate")
    grad = np.empty(theta.shape)
    for i in range(len(theta)):
        h = STEP_SCALE * max(1.0, abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fu = fn(ParameterSet.from_vector(spec, up))
        fd = fn(ParameterSet.from_vector(spec, dn))
        grad[i] = (fu - fd) / (2.0 * h)
    if not np.isfinite(grad).all():
        resp, col = spec.flat_coords[int(np.argmin(np.isfinite(grad)))]
        raise InferenceError(f"{label}: not finite when perturbing "
                             f"{resp}:{spec.column_label(col)}")
    return value, grad


def _check_level(level: float):
    if not (_is(level, float) and 0.0 < level < 1.0):
        raise InferenceError(f"interval level {level!r} is not between 0 "
                             f"and 1")


def delta_se(fitted: FittedSystem, effect: Callable,
             level: float = 0.95, label: str = "effect") -> EffectEstimate:
    """Delta-method estimate of a scalar functional of the coefficients.

    ``effect`` maps a ParameterSet to a float.  A variance that is not
    finite, or negative by more than rounding, means the covariance is
    unusable and raises InferenceError; so does a ``level`` outside (0, 1).
    """
    _check_level(level)
    value, grad = gradient(effect, fitted, label)
    sigma = fitted.covariance_matrix()
    var = float(grad @ sigma @ grad)
    if not math.isfinite(var):
        raise InferenceError(f"{label}: variance {var} is not finite")
    if var < 0.0 and -var > 1e-12 * float(np.abs(grad) @ np.abs(sigma)
                                          @ np.abs(grad)):
        raise InferenceError(
            f"{label}: negative variance {var:.3g}; the covariance is not "
            f"positive semi-definite")
    se = math.sqrt(max(var, 0.0))
    # the lower tail: 0.5 + level / 2 rounds to 1 below level = 1
    z = -NormalDist().inv_cdf(0.5 - level / 2.0)
    ci = (value - z * se, value + z * se)
    if se > 0.0:    # 2 P(Z > r) = erfc(r / sqrt 2)
        p = math.erfc(abs(value) / se / math.sqrt(2.0))
    else:
        p = 1.0 if value == 0.0 else 0.0
    return EffectEstimate(label, value, se, ci, p, level)


# -- effect tables ---------------------------------------------------------

@dataclass(frozen=True)
class EffectRow:
    effect: str
    contrast: str
    covariates: str
    estimate: EffectEstimate


@dataclass(frozen=True)
class EffectTable:
    rows: tuple
    level: float = 0.95
    _FIELDS = ("effect", "contrast", "covariates", "estimate", "se", "ci_low",
              "ci_high", "p_value")

    def to_records(self) -> list:
        return [dict(zip(self._FIELDS, (
            r.effect, r.contrast, r.covariates, r.estimate.value,
            r.estimate.se, *r.estimate.ci, r.estimate.p_value)))
            for r in self.rows]

    def to_json(self) -> str:
        return json.dumps(self.to_records(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self._FIELDS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.to_records())
        return buf.getvalue()

    def to_text(self) -> str:
        header = (f"{'effect':<10}{'contrast':<14}{'covariates':<14}"
                  f"{'estimate':>10}{'se':>9}{f'ci{100 * self.level:g}':>20}"
                  f"{'p':>9}")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            e = r.estimate
            ci = f"({e.ci[0]:.3f}, {e.ci[1]:.3f})"
            lines.append(f"{r.effect:<10}{r.contrast:<14}{r.covariates:<14}"
                         f"{e.value:>10.3f}{e.se:>9.3f}{ci:>20}"
                         f"{e.p_value:>9.4f}")
        return "\n".join(lines)


def effect_table(fitted: FittedSystem, requests: Iterable[EffectRequest],
                 paths: Optional[Iterable] = None,
                 transform: Optional[Callable] = None,
                 level: float = 0.95) -> EffectTable:
    """One row per effect component and request, ordered DE, IE/GIE, RES,
    TE within each request, path-specific rows after; each row is the
    delta-method estimate of ``component``.  A ``transform`` reduces the
    system first, by ``transform_fitted``.  The level and every request
    are checked before any of that work; paths after the reduction, which
    sets the mediators they range over."""
    requests = list(requests)
    _check_level(level)
    for req in requests:    # the checks each evaluation makes, made once
        _check_mediators(fitted.spec)
        _check_slope(fitted.spec, req.mode == "derivative")
        for x in req.treatment_values:
            _check_setting(fitted.spec, 0, x, req.covariates, {})
    if transform is not None:
        fitted = transform_fitted(fitted, transform)[0]
    paths = [p if isinstance(p, PathSpec) else PathSpec.parse(p)
             for p in paths or ()]
    for ps in paths:    # fail before the first row is computed
        component_mask(fitted.spec, "PSIE", ps)
    rows = []
    for req in requests:
        te, de, ie, res = component_names(indirect_name(fitted.spec),
                                          req.scale)
        named = [(de, "DE", None), (ie, "IE", None), (res, "RES", None),
                 (te, "TE", None)]
        named += [("PSIE[" + ",".join(str(i) for i in ps.indices) + "]",
                   "PSIE", ps) for ps in paths]
        for name, comp, path in named:
            label = f"{name} {req.label()}"
            if req.covariate_label():
                label += f" | {req.covariate_label()}"
            # this module's name, looked up at each call, so that a wrapped
            # inference.marginal_logit_multi sees every evaluation
            est = delta_se(fitted, lambda p: component(
                p, req, comp, path, marginal_logit_multi),
                level=level, label=label)
            rows.append(EffectRow(name, req.label(),
                                  req.covariate_label(), est))
    return EffectTable(tuple(rows), level)


def transform_fitted(fitted: FittedSystem, transform: Callable):
    """Push a mediator reduction (``multi.marginalize``) through a fitted
    system; any other transform is an InferenceError.  The reduced
    coefficients get the full covariance J Sigma J' of the reduction's
    exact Jacobian.  Returns (reduced FittedSystem, cross) where ``cross``
    is the largest absolute covariance between different reduced equations.
    """
    new_params = transform(fitted.params)
    new_spec = new_params.spec
    j = next((j for j, (_, reduced_spec, _) in fitted.spec.reductions.items()
              if reduced_spec is new_spec), None)
    if j is None:
        raise InferenceError("a transform must sum one mediator out of the "
                             "fitted system (multi.marginalize)")
    jac = _reduce(fitted.params, j)[1]
    sigma = jac @ fitted.covariance_matrix() @ jac.T
    diagnostics = {resp: d for resp, d in fitted.diagnostics.items()
                   if resp in new_spec.equations
                   and new_spec.equations[resp] == fitted.spec.equations.get(resp)}
    reduced = FittedSystem(new_spec, new_params, sigma, diagnostics,
                           fitted.n)
    blocks = block_covariance(new_spec, reduced.cov_blocks)
    cross = float(np.max(np.abs(sigma - blocks), initial=0.0))
    return reduced, cross
