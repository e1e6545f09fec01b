"""Path-specific indirect effects and explicit mediator removal.

The marginal logit, ``g_recursive`` and ``decompose`` work for any number
of mediators and live in ``effects``.  A path-specific indirect effect
(PSIE) reroutes the treatment through one ordered mediator path by zeroing
every coefficient not on the path (four rule groups below).

``marginalize(params, j)`` sums any mediator W_j out of the system, j = 1
the innermost and j = k the outermost.  Each
equation with W_j as a predictor is rebuilt from its values at every
corner of its new predictors: ``lift`` against W_j's log odds given them,
W_j's own equation updated by ``cond_logit`` through each rebuilt
mediator in between; the others are copied, since a variable is
independent of its non-descendants given its predictors.  The corner-point
solve is exact only for discrete predictors, so continuous treatments or
covariates are refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .dual import cond_logit, lift
from .effects import (EffectError, EffectRequest, as_index, component,
                      g_recursive, marginal_logit_multi)
from .model import ParameterSet, SystemSpec, Term, design


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
            t = tuple(as_index(i, "mediator index") for i in seq)
        except TypeError:
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
            as_index(i, "mediator index", 1, k)
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
    if not isinstance(path, PathSpec):
        path = PathSpec.parse(path)
    return component(params, request, "PSIE", path)


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
                f"{n!r} is continuous (the marginal logit has no such limit)")
        # object levels compare like the scalars they are
        axes.append(np.array(var.levels, dtype=object) if var.levels
                    else np.array([0.0, 1.0]))
    grid = dict(zip(names, (a.ravel() for a in
                            np.meshgrid(*axes, indexing="ij"))))
    X = design(spec, response, grid, int(np.prod([len(a) for a in axes])))
    for a in (*grid.values(), X):   # shared by every later reduction
        a.setflags(write=False)
    return grid, X


def _full_basis(names) -> tuple:
    return tuple(Term(frozenset(sub)) for r in range(len(names) + 1)
                 for sub in itertools.combinations(names, r))


def _plan(spec: SystemSpec, j: int) -> tuple:
    """The coefficient-free part of summing W_j out, kept on ``spec``:
    W_j's name, the reduced spec, and for each equation with W_j as a
    predictor the rebuilt mediators between W_j and it, outermost first,
    and its corner system over its new predictors."""
    if j not in spec.reductions:
        meds = spec.mediators
        if len(meds) < 2:
            raise EffectError("summing a mediator out needs at least two "
                              "mediators")
        gone = meds[j - 1].name
        rebuilt, passed = {}, ()
        inward = [m.name for m in reversed(meds[:j - 1])] + [spec.outcome.name]
        for resp in inward:
            if gone in spec.predictors(resp):
                names = set(spec.predictors(resp) | spec.predictors(gone))
                for m in passed:
                    names |= {m} | spec.predictors(m)
                rebuilt[resp] = (tuple(m for m in passed if m in rebuilt),
                                 sorted(names - {gone}, key=spec.ordering.index))
            passed += (resp,)
        new_vars = tuple(
            replace(v, mediator_index=v.mediator_index - 1)
            if v.role == "mediator" and v.mediator_index > j else v
            for v in spec.variables if v.name != gone)
        new_eqs = {resp: _full_basis(rebuilt[resp][1]) if resp in rebuilt
                   else ts for resp, ts in spec.equations.items()
                   if resp != gone}
        new_spec = SystemSpec(new_vars, new_eqs).require_valid()
        spec.reductions[j] = gone, new_spec, tuple(
            (resp, between, *_corner_system(new_spec, resp, names))
            for resp, (between, names) in rebuilt.items())
    return spec.reductions[j]


def marginalize(params: ParameterSet, j: int) -> ParameterSet:
    """The reduced system (spec attached) with mediator W_j of k >= 2
    summed out exactly.  Equations with W_j as a predictor are rebuilt on
    the full interaction basis of their new predictors, own and W_j's plus
    the mediators in between and theirs; the others are copied, and outer
    mediators slide down one index."""
    spec = params.spec
    gone, new_spec, rebuilt = _plan(spec, as_index(
        j, "mediator index", 1, len(spec.mediators)))
    lp = params.linear_predictor
    coefs = {}
    for resp, between, grid, X in rebuilt:
        rw = lp(gone, grid)
        for m in between:
            rw = cond_logit(grid[m], lp(m, {**grid, gone: 0.0}),
                            lp(m, {**grid, gone: 1.0}), rw)
        value = lift(lp(resp, {**grid, gone: 0.0}),
                     lp(resp, {**grid, gone: 1.0}), rw)
        coefs[resp] = np.linalg.solve(X, np.broadcast_to(value, len(X)))
    # a copied equation keeps its terms, hence its column order
    return ParameterSet(new_spec, np.concatenate([
        coefs[resp] if resp in coefs else params.vector[spec.slices[resp]]
        for resp in new_spec.responses]))


def marginalize_inner(params: ParameterSet) -> ParameterSet:
    """Sum the innermost mediator out: ``marginalize(params, 1)``."""
    return marginalize(params, 1)
