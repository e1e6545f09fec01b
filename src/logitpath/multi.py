"""Path-specific indirect effects and explicit mediator removal.

The marginal logit and the global decomposition work for any number of
mediators; they live in ``effects`` and are re-exported here, with
``decompose_multi`` an alias of ``decompose``.  A path-specific indirect
effect (PSIE) reroutes the treatment through one ordered mediator path by
zeroing every coefficient not on the path (four rule groups below).

Inner and outer mediator removal (``marginalize_inner``,
``marginalize_outer``) rebuild explicit reduced systems with ``lift``;
their coefficient extraction solves an exact corner-point system, which
is only exact when the remaining predictors are discrete, so those two
operations refuse continuous treatments or covariates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

import numpy as np

from .dual import cond_logit, lift
from .effects import (EffectError, EffectRequest, component_value, decompose,
                      g_recursive, marginal_logit_multi, _validate_request)
from .model import (ParameterSet, SystemSpec, Term, ZeroMask,
                    column_value)

decompose_multi = decompose


def residual_structurally_zero(spec: SystemSpec) -> bool:
    """True when the residual component is identically zero by structure:
    the treatment is not a parent of the outcome, or no mediator is."""
    ypreds = spec.predictors(spec.outcome.name)
    if spec.treatment.name not in ypreds:
        return True
    return not any(m.name in ypreds for m in spec.mediators)


@dataclass(frozen=True)
class PathSpec:
    """An ordered mediator path X -> W_{i_r} -> ... -> W_{i_1} -> Y.

    Stored as strictly increasing indices (innermost first).  Input
    sequences may run in either direction; a non-monotone sequence would
    have to pass through a collider, where the path is blocked, and is
    rejected.
    """

    indices: tuple

    @staticmethod
    def parse(seq) -> "PathSpec":
        try:
            t = tuple(int(i) for i in seq)
        except (TypeError, ValueError):
            raise EffectError(f"cannot read path indices from {seq!r}") from None
        if not t:
            raise EffectError("a path needs at least one mediator index")
        if len(set(t)) != len(t):
            raise EffectError(f"repeated mediator index in path {list(t)}")
        increasing = all(a < b for a, b in zip(t, t[1:]))
        decreasing = all(a > b for a, b in zip(t, t[1:]))
        if not (increasing or decreasing):
            raise EffectError(
                f"path {list(t)} is not an ordered traversal: mediator "
                f"indices must be strictly monotone, otherwise the walk "
                f"runs into a collider and the path is blocked")
        return PathSpec(tuple(sorted(t)))

    def mask_targets(self, spec: SystemSpec) -> list:
        """The (equation, variable) zeroing plan that isolates this path.

        Four groups: the direct treatment arrow into Y; every mediator
        arrow into Y except the path's innermost; within each path
        mediator's equation, every more-outward mediator except the path
        successor; and the treatment arrow into every path mediator
        except the outermost.
        """
        meds = spec.mediators
        k = len(meds)
        for i in self.indices:
            if not 1 <= i <= k:
                raise EffectError(f"path index {i} out of range 1..{k}")
        name = {m.mediator_index: m.name for m in meds}
        y = spec.outcome.name
        x = spec.treatment.name
        lo, hi = self.indices[0], self.indices[-1]
        successor = {a: b for a, b in zip(self.indices, self.indices[1:])}
        targets = [(y, x)]
        for m in meds:
            if m.mediator_index != lo:
                targets.append((y, m.name))
        for r in self.indices:
            for j in range(r + 1, k + 1):
                if r == hi or j != successor.get(r):
                    targets.append((name[r], name[j]))
            if r != hi:
                targets.append((name[r], x))
        return targets


def psie(params: ParameterSet, path, request: EffectRequest) -> float:
    """Path-specific indirect effect: the total effect left after zeroing
    every coefficient not pertaining to the path."""
    spec = params.spec
    if not isinstance(path, PathSpec):
        path = PathSpec.parse(path)
    _validate_request(spec, request)
    mask = ZeroMask.from_targets(spec, path.mask_targets(spec))
    return component_value(params, request, mask)


# -- explicit mediator removal ---------------------------------------------

def _discrete_axes(spec: SystemSpec, names):
    axes = []
    for n in names:
        var = spec.variable(n)
        if var.kind == "categorical":
            axes.append(tuple(var.levels))
        elif var.kind == "binary":
            axes.append((0.0, 1.0))
        else:
            raise EffectError(
                f"explicit marginalization needs discrete predictors; "
                f"{n!r} is continuous (pointwise evaluators have no such limit)")
    return axes


def _extract_equation(new_spec: SystemSpec, response: str, names,
                      value_fn: Callable) -> dict:
    """Solve for the column coefficients reproducing ``value_fn`` on the
    full grid of discrete predictor corners.  Exact: the tensor-product
    dummy basis spans every function on that grid."""
    axes = _discrete_axes(new_spec, names)
    grid = list(itertools.product(*axes)) if names else [()]
    cols = new_spec.columns(response)
    design = np.array([[column_value(c, dict(zip(names, combo))) for c in cols]
                       for combo in grid])
    vals = np.array([value_fn(dict(zip(names, combo))) for combo in grid])
    coefs = np.linalg.solve(design, vals)
    return {(response, c): float(b) for c, b in zip(cols, coefs)}


def _sum_out(params: ParameterSet, response: str, med: str, assign: Mapping):
    """Log odds of ``response`` at ``assign``, binary ``med`` summed out."""
    return lift(params.linear_predictor(response, {**assign, med: 0.0}),
                params.linear_predictor(response, {**assign, med: 1.0}),
                params.linear_predictor(med, assign))


def _full_basis(names) -> tuple:
    terms = []
    ordered = list(names)
    for r in range(len(ordered) + 1):
        for sub in itertools.combinations(ordered, r):
            terms.append(Term(frozenset(sub)))
    return tuple(terms)


def _without(params: ParameterSet, gone: str, rebuilt: Mapping):
    """The system with mediator ``gone`` summed out.  Each ``rebuilt``
    equation ({response: (predictors, value_fn)}) gets the full
    interaction basis over its predictors and reproduces value_fn at every
    corner; the other equations are copied verbatim."""
    spec = params.spec
    index = spec.variable(gone).mediator_index
    new_vars = tuple(
        replace(v, mediator_index=v.mediator_index - 1)
        if v.role == "mediator" and v.mediator_index > index else v
        for v in spec.variables if v.name != gone)
    new_eqs = {resp: _full_basis(rebuilt[resp][0]) if resp in rebuilt else ts
               for resp, ts in spec.equations.items() if resp != gone}
    new_spec = SystemSpec(new_vars, new_eqs).require_valid()
    updates = {}
    for resp, (names, value_fn) in rebuilt.items():
        updates.update(_extract_equation(new_spec, resp, names, value_fn))
    return ParameterSet(new_spec, {c: updates[c] if c in updates
                                   else params.values[c]
                                   for c in new_spec.flat_coords})


def marginalize_inner(params: ParameterSet) -> ParameterSet:
    """Sum the innermost mediator out of the system exactly.

    Returns the parameters of the reduced system (spec attached), whose
    outcome equation carries the full interaction basis over the remaining
    outcome predictors: marginalization fills in interactions even when
    the original model had none.  Outer mediators slide down one index.
    """
    spec = params.spec
    if len(spec.mediators) < 2:
        raise EffectError("inner marginalization needs at least two mediators")
    w1 = spec.mediators[0].name
    y = spec.outcome.name
    rem = sorted((spec.predictors(y) | spec.predictors(w1)) - {w1},
                 key=spec.position)
    return _without(params, w1, {
        y: (rem, lambda a: _sum_out(params, y, w1, a))})


def marginalize_outer(params: ParameterSet) -> Callable:
    """Evaluator (x, w1, covariates) -> log odds of Y=1 given X=x and the
    inner mediator, with the outer mediator of a two-mediator system
    summed out.  Pointwise and exact for any treatment kind."""
    spec = params.spec
    meds = spec.mediators
    if len(meds) != 2:
        raise EffectError("outer marginalization is defined for exactly "
                          "two mediators")
    w1, w2 = meds
    y = spec.outcome.name

    def evaluator(x, w1val, covariates: Optional[Mapping] = None):
        lp = params.linear_predictor
        base = {spec.treatment.name: x, **(covariates or {})}
        # log odds of W2=1 given W1=w1val, by Bayes through W1's equation
        rw2 = cond_logit(w1val, lp(w1.name, {**base, w2.name: 0.0}),
                         lp(w1.name, {**base, w2.name: 1.0}),
                         lp(w2.name, base))
        at = {**base, w1.name: w1val}
        return lift(lp(y, {**at, w2.name: 0.0}), lp(y, {**at, w2.name: 1.0}),
                    rw2)

    return evaluator


def marginalize_outer_system(params: ParameterSet) -> ParameterSet:
    """Reduced single-mediator system with the outer of two mediators
    removed: outcome equation from the ``marginalize_outer`` evaluator,
    inner-mediator equation from its own one-step marginalization."""
    evaluator = marginalize_outer(params)
    spec = params.spec
    w1, w2 = (m.name for m in spec.mediators)
    y = spec.outcome.name
    x = spec.treatment.name
    rem_y = sorted(({w1} | spec.predictors(y) | spec.predictors(w1)
                    | spec.predictors(w2)) - {w2}, key=spec.position)
    rem_w1 = sorted((spec.predictors(w1) | spec.predictors(w2)) - {w2},
                    key=spec.position)

    def y_value(assign):
        a = dict(assign)
        return evaluator(a.pop(x), a.pop(w1), a)

    return _without(params, w2, {
        y: (rem_y, y_value),
        w1: (rem_w1, lambda a: _sum_out(params, w1, w2, a))})
