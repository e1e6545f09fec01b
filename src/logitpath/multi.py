"""Path-specific indirect effects and explicit mediator removal.

The marginal logit, ``g_recursive`` and ``decompose`` work for any number
of mediators and live in ``effects``.  A path-specific indirect effect
(PSIE) reroutes the treatment through one ordered mediator path by zeroing
every coefficient not on the path (four rule groups below).

``marginalize(params, j)`` sums any mediator W_j out, j = 1 the innermost
and j = k the outermost.  Each equation with W_j as a predictor is
rebuilt from its values at the corners of its new predictors: the
marginal logit of its response over W_j = 0, 1 given the mediators in
between, on a compiled ``effects`` corner program.  One
``effects._joint`` call gives the corners' log likelihoods and their
theta-gradient, and one ``effects._log_ratio`` call the values and their
exact gradient (Fisher's identity), so ``_reduce`` returns the Jacobian
too.  The others are copied: a variable is independent of its
non-descendants given its predictors.  The corner-point solve needs
discrete predictors; continuous ones are refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .effects import (EffectError, EffectRequest, _corner_design, _joint,
                      _log_ratio, _Program, as_index, component, g_recursive,
                      marginal_logit_multi)
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

def _corner_system(spec: SystemSpec, new_spec: SystemSpec, gone: str,
                   response: str, between, names) -> tuple:
    """(X, program) of rebuilding ``response`` at every corner of the
    discrete ``names``: X its new design, square and invertible (a full
    dummy basis), and the corner program of its old likelihood and those
    of W_j = ``gone`` and the ``between`` mediators, over W_j = 0, 1
    (axis 0) times those corners.  No factor is left for a setting, so
    s0 is all ones."""
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
    X = design(new_spec, response, grid, int(np.prod([len(a) for a in axes])))
    corners = {n: np.tile(v, 2) for n, v in grid.items()}
    corners[gone] = np.repeat([0.0, 1.0], len(X))
    rows = [(response, 0), (response, 1)] + [(m, corners[m])
                                             for m in (gone, *between)]
    X.setflags(write=False)     # shared by every later reduction
    return X, _Program(*_corner_design(spec, rows, corners, (2, len(X))),
                       np.broadcast_to(1.0, len(spec.flat_coords)), None)


def _full_basis(names) -> tuple:
    return tuple(Term(frozenset(sub)) for r in range(len(names) + 1)
                 for sub in itertools.combinations(names, r))


def _plan(spec: SystemSpec, j: int) -> tuple:
    """The coefficient-free part of summing W_j out, kept on ``spec``:
    W_j's name, the reduced spec, and for each equation with W_j as a
    predictor its ``_corner_system`` over its new predictors, with the
    rebuilt mediators between W_j and it."""
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
        spec.reductions[j] = gone, new_spec, {
            resp: _corner_system(spec, new_spec, gone, resp, between, names)
            for resp, (between, names) in rebuilt.items()}
    return spec.reductions[j]


def _reduce(params: ParameterSet, j: int) -> tuple:
    """(``marginalize(params, j)``, J): the reduced system and the exact
    Jacobian of its coefficients in the old ones; X^-1 times the corner
    values and their gradient for a rebuilt equation, the old coefficients
    for a copied one."""
    spec = params.spec
    gone, new_spec, rebuilt = _plan(spec, as_index(
        j, "mediator index", 1, len(spec.mediators)))
    theta = params.vector
    vector = np.empty(len(new_spec.flat_coords))
    jac = np.zeros((len(vector), len(theta)))
    for resp, s in new_spec.slices.items():
        if resp in rebuilt:
            X, program = rebuilt[resp]
            eta, deta, ell, dell = _joint(program, theta, None, grad=True)
            # theta's axis last, a singleton in the values
            value, grad = _log_ratio(ell[0][..., None], eta[..., None],
                                     dell[0], deta)
            solved = np.linalg.solve(X, np.hstack([value, grad]))
            vector[s], jac[s] = solved[:, 0], solved[:, 1:]
        else:   # a copied equation keeps its terms, hence its column order
            old = spec.slices[resp]
            vector[s] = theta[old]
            jac[s, old] = np.eye(old.stop - old.start)
    return ParameterSet(new_spec, vector), jac


def marginalize(params: ParameterSet, j: int) -> ParameterSet:
    """The reduced system (spec attached) with mediator W_j of k >= 2
    summed out exactly.  Equations with W_j as a predictor are rebuilt on
    the full interaction basis of their new predictors, own and W_j's plus
    the mediators in between and theirs; the others are copied, and outer
    mediators slide down one index."""
    return _reduce(params, j)[0]


def marginalize_inner(params: ParameterSet) -> ParameterSet:
    """Sum the innermost mediator out: ``marginalize(params, 1)``."""
    return marginalize(params, 1)
