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
from .model import ParameterSet, SystemSpec, Term, ZeroMask, design

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

def _corner_system(spec: SystemSpec, response: str, names) -> tuple:
    """(grid, design): every corner of the discrete predictors ``names``,
    one array per name, and the response's design at those corners.  The
    full dummy basis spans every function on the grid: the design is
    square and invertible."""
    axes = []
    for n in names:
        var = spec.variable(n)
        if var.kind == "continuous":
            raise EffectError(
                f"explicit marginalization needs discrete predictors; "
                f"{n!r} is continuous (pointwise evaluators have no such limit)")
        # object levels compare like the scalars they are
        axes.append(np.array(var.levels, dtype=object) if var.levels
                    else np.array([0.0, 1.0]))
    grid = dict(zip(names, (a.ravel() for a in
                            np.meshgrid(*axes, indexing="ij"))))
    X = design(spec, response, grid, int(np.prod([len(a) for a in axes])))
    for a in (*grid.values(), X):   # shared by every later reduction
        a.setflags(write=False)
    return grid, X


def _sum_out(params: ParameterSet, response: str, med: str, assign: Mapping):
    """Log odds of ``response`` at ``assign``, binary ``med`` summed out."""
    return lift(params.linear_predictor(response, {**assign, med: 0.0}),
                params.linear_predictor(response, {**assign, med: 1.0}),
                params.linear_predictor(med, assign))


def _full_basis(names) -> tuple:
    return tuple(Term(frozenset(sub)) for r in range(len(names) + 1)
                 for sub in itertools.combinations(names, r))


def _plan(spec: SystemSpec, gone: str, rebuilt: Mapping) -> tuple:
    """The coefficient-free part of summing ``gone`` out, kept on ``spec``:
    the reduced spec and each ``rebuilt`` equation's corner system."""
    if gone not in spec.reductions:
        index = spec.variable(gone).mediator_index
        new_vars = tuple(
            replace(v, mediator_index=v.mediator_index - 1)
            if v.role == "mediator" and v.mediator_index > index else v
            for v in spec.variables if v.name != gone)
        new_eqs = {resp: _full_basis(rebuilt[resp]) if resp in rebuilt else ts
                   for resp, ts in spec.equations.items() if resp != gone}
        new_spec = SystemSpec(new_vars, new_eqs).require_valid()
        spec.reductions[gone] = new_spec, {
            resp: _corner_system(new_spec, resp, names)
            for resp, names in rebuilt.items()}
    return spec.reductions[gone]


def _without(params: ParameterSet, gone: str, rebuilt: Mapping):
    """The system with mediator ``gone`` summed out.  Each ``rebuilt``
    equation ({response: (predictors, value_fn)}) gets the full
    interaction basis over its predictors and reproduces value_fn, called
    once on the whole corner grid; the other equations are copied."""
    new_spec, corners = _plan(params.spec, gone,
                              {resp: names for resp, (names, _) in rebuilt.items()})
    coefs = {}
    for resp, (_, value_fn) in rebuilt.items():
        grid, X = corners[resp]
        coefs[resp] = np.linalg.solve(X, np.broadcast_to(value_fn(grid), len(X)))
    # a copied equation keeps its terms, hence its column order
    return ParameterSet(new_spec, np.concatenate([
        coefs[resp] if resp in coefs else params.vector[params.spec.slices[resp]]
        for resp in new_spec.responses]))


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
