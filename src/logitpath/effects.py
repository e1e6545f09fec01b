"""Marginal logits and their decomposition into effects.

The marginal logit of Y given X (and covariates) sums the mediators out
one at a time, innermost first.  Step j (``_step``) evaluates Y's linear
predictor at the 2^j corners of W_1..W_j and lifts W_1..W_{j-1} out,
halving the corners each time, to reach the triple

    (R_{j-1}(W_j=0, w_{>j}), R_{j-1}(W_j=1, w_{>j}), rhs(W_j | w_{>j})).

``lift`` of step k is the marginal logit (``marginal_logit_multi``), exact
for any treatment kind; ``cond_logit`` of step j is ``g_recursive``.  Dual
inputs give derivatives and array inputs many points at once.  One mediator
is the k = 1 case; only ``deltas`` is specific to it.  Each effect
component is a contrast (or derivative) of the marginal logit under a
coefficient mask (``component_mask``, built once per spec), evaluated by
``component`` and collected by ``decompose``:

    TE   no mask
    DE   every mediator zeroed out of the outcome equation
    IE   treatment zeroed out of the outcome equation (GIE for k > 1)
    PSIE every arrow off one mediator path zeroed (``multi.PathSpec``)
    RES  TE - DE - IE

Probability-scale components apply the same masks inside expit(eta).  The
residual is the non-collapsibility term; it vanishes in linear models but
not here.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

import numpy as np

from .dual import Dual, cond_logit, expit, lift
from .fitting import DataError, Dataset, coerce_column
from .model import ParameterSet, SystemSpec, ZeroMask

SCALES = ("logodds", "probability")


class EffectError(ValueError):
    """An effect request that does not fit the system at hand."""


# -- marginal logits -------------------------------------------------------

def _step(params: ParameterSet, base: Mapping, j: int):
    """Step j's (r0, r1, rw) at ``base`` (treatment, covariates and any
    outer mediators); corners list W_1..W_j with W_1 changing fastest."""
    lp = params.linear_predictor
    meds = params.spec.mediators[:j]
    corners = [[base]]  # corners[n]: the 2^n assignments of W_{j-n+1}..W_j
    for med in reversed(meds):
        corners.append([{**a, med.name: v}
                        for a in corners[-1] for v in (0.0, 1.0)])
    r = [lp(params.spec.outcome.name, a) for a in corners.pop()]
    for med in meds[:-1]:
        r = [lift(r[2 * c], r[2 * c + 1], lp(med.name, a))
             for c, a in enumerate(corners.pop())]
    return r[0], r[1], lp(meds[-1].name, base)


def g_recursive(params: ParameterSet, j: int, y: int, x,
                w_above: Optional[Mapping] = None,
                covariates: Optional[Mapping] = None):
    """Log odds of W_j=1 given Y=y, X=x and W_{>j}, with W_{<j} summed out.

    ``w_above`` maps the names of the outer mediators W_{j+1}..W_k to 0/1
    values; it can be omitted when nothing outward of j is referenced.
    """
    meds = params.spec.mediators
    if not 1 <= j <= len(meds):
        raise EffectError(f"mediator index {j} out of range 1..{len(meds)}")
    if y not in (0, 1):
        raise EffectError("y must be 0 or 1")
    base = {params.spec.treatment.name: x, **(covariates or {}),
            **(w_above or {})}
    return cond_logit(y, *_step(params, base, j))


def marginal_logit_multi(params: ParameterSet, x,
                         covariates: Optional[Mapping] = None):
    """Log odds of Y=1 given X=x (and covariates), all mediators summed out."""
    spec = params.spec
    base = {spec.treatment.name: x, **(covariates or {})}
    if not spec.mediators:
        return params.linear_predictor(spec.outcome.name, base)
    return lift(*_step(params, base, len(spec.mediators)))


def deltas(params: ParameterSet, x, covariates: Optional[Mapping] = None):
    """(delta_y, delta_w, delta_w_star) at X=x.

    delta_y: P(Y=1|W=1,x) - P(Y=1|W=0,x)
    delta_w: P(W=1|Y=1,x) - P(W=1|Y=0,x)
    delta_w_star: delta_w recomputed with the treatment zeroed out of the
    outcome equation.
    """
    spec = params.spec
    if len(spec.mediators) != 1:
        raise EffectError(f"deltas need exactly one mediator, system has "
                          f"{len(spec.mediators)}")
    base = {spec.treatment.name: x, **(covariates or {})}
    steps = [_step(p, base, 1)
             for p in (params, component_mask(spec, "IE").apply(params))]
    r0, r1, _ = steps[0]
    dy = expit(r1) - expit(r0)
    dw, dws = (expit(cond_logit(1, *t)) - expit(cond_logit(0, *t))
               for t in steps)
    return dy, dw, dws


# -- requests and masks ----------------------------------------------------

@dataclass(frozen=True)
class EffectRequest:
    """What to evaluate: a contrast x1 vs x0 or a derivative at a point,
    at a fixed covariate setting, on one scale."""

    mode: str
    x1: object = None
    x0: object = None
    at: object = None
    covariates: Mapping = field(default_factory=dict)
    scale: str = "logodds"

    def __post_init__(self):
        if self.mode not in ("contrast", "derivative"):
            raise EffectError(f"unknown mode {self.mode!r}")
        if self.scale not in SCALES:
            raise EffectError(f"unknown scale {self.scale!r}")
        if self.mode == "contrast":
            if self.x1 is None or self.x0 is None:
                raise EffectError("contrast mode needs x1 and x0")
            try:   # array endpoints must differ at every point
                same = bool(np.any(self.x1 == self.x0))
            except ValueError:
                raise EffectError("contrast endpoints must have one "
                                  "shape") from None
            if same:
                raise EffectError("contrast endpoints must differ")
        else:
            if self.at is None:
                raise EffectError("derivative mode needs an evaluation point")
        for v in (self.x1, self.x0) if self.mode == "contrast" else (self.at,):
            try:
                finite = np.all(np.isfinite(np.asarray(v, dtype=float)))
            except (TypeError, ValueError):   # a level that is no number
                finite = True
            except OverflowError:
                finite = False
            if not finite:
                raise EffectError(f"treatment value {reprlib.repr(v)} is "
                                  f"not finite")

    @staticmethod
    def contrast(x1, x0, covariates=None, scale="logodds") -> "EffectRequest":
        return EffectRequest("contrast", x1=x1, x0=x0,
                             covariates=dict(covariates or {}), scale=scale)

    @staticmethod
    def derivative(at, covariates=None, scale="logodds") -> "EffectRequest":
        return EffectRequest("derivative", at=at,
                             covariates=dict(covariates or {}), scale=scale)

    def with_scale(self, scale: str) -> "EffectRequest":
        return replace(self, scale=scale)

    def label(self) -> str:
        if self.mode == "contrast":
            return f"{self.x1} vs {self.x0}"
        return f"d/dx at {self.at}"

    def covariate_label(self) -> str:
        if not self.covariates:
            return ""
        return ", ".join(f"{k}={v}" for k, v in sorted(self.covariates.items()))


def component_mask(spec: SystemSpec, name: str, path=None) -> ZeroMask:
    """The coefficient mask of component ``name`` (TE, DE, IE, GIE, or
    PSIE along ``path``, a ``multi.PathSpec``); TE's zeroes nothing.
    Built once per spec and kept in ``spec.masks``."""
    key = (name, None if path is None else path.indices)
    if key not in spec.masks:
        y = spec.outcome.name
        if name == "TE":
            targets = []
        elif name == "DE":
            targets = [(y, m.name) for m in spec.mediators]
        elif name in ("IE", "GIE"):
            targets = [(y, spec.treatment.name)]
        elif name == "PSIE":
            if path is None:
                raise EffectError("the PSIE component needs a path")
            targets = path.mask_targets(spec)
        else:
            raise EffectError(f"unknown effect component {name!r}")
        spec.masks[key] = ZeroMask.from_targets(spec, targets)
    return spec.masks[key]


def _takes(var, value) -> bool:
    """Whether ``var`` can take ``value``, or every entry of an array of
    values: binary 0 or 1, categorical one of its levels, continuous a
    finite number."""
    if isinstance(value, np.ndarray):
        try:
            return all(_takes(var, v) for v in set(value.ravel().tolist()))
        except TypeError:   # an unhashable entry is no value
            return False
    if var.kind == "continuous":
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return value in (var.levels if var.kind == "categorical" else (0, 1))


def _validate_request(spec: SystemSpec, request: EffectRequest):
    if not spec.mediators:
        raise EffectError("system declares no mediators")
    for name, value in request.covariates.items():
        var = spec.by_name.get(name)
        role = var.role if var else "undeclared"
        if role != "covariate":
            raise EffectError(f"cannot fix {name!r} ({role}): only "
                              f"covariates can be fixed")
        if not _takes(var, value):
            wanted = {"binary": "0 or 1", "continuous": "a finite number"}.get(
                var.kind, f"a level in {list(var.levels)}")
            raise EffectError(f"covariate {name!r} cannot take "
                              f"{reprlib.repr(value)}; it takes {wanted}")
    kind = spec.treatment.kind
    if request.mode == "derivative" and kind != "continuous":
        raise EffectError("derivative mode requires a continuous treatment")
    if request.mode == "contrast" and kind != "continuous":
        for v in (request.x1, request.x0):
            if not _takes(spec.treatment, v):
                levels = spec.treatment.levels or (0, 1)
                raise EffectError(f"{v!r} is not a level of "
                                  f"{spec.treatment.name!r} (levels: "
                                  f"{list(levels)})")


def component(params: ParameterSet, request: EffectRequest, name: str,
              path=None, logit_fn: Callable = marginal_logit_multi):
    """Effect component ``name`` (TE, DE, IE, GIE, RES, or PSIE along
    ``path``): the contrast or derivative of the marginal logit
    ``logit_fn`` under the component's mask, or of its expit on the
    probability scale.  RES is the residual of TE, DE and IE."""
    if name == "RES":
        return Decomposition(request, *(
            component(params, request, c, logit_fn=logit_fn)
            for c in ("TE", "DE", "IE"))).residual
    _validate_request(params.spec, request)
    masked = component_mask(params.spec, name, path).apply(params)
    covs = dict(request.covariates)
    if request.mode == "contrast":
        a = logit_fn(masked, request.x1, covs)
        b = logit_fn(masked, request.x0, covs)
        if request.scale == "probability":
            return expit(a) - expit(b)
        return a - b
    xd = Dual(request.at, 1.0)
    e = logit_fn(masked, xd, covs)
    if request.scale == "probability":
        e = expit(e)
    # a fully masked treatment can leave a plain float: derivative is 0
    return e.dot if isinstance(e, Dual) else 0.0


def indirect_name(spec: SystemSpec) -> str:
    """IE for one mediator, GIE (global indirect effect) for several."""
    return "GIE" if len(spec.mediators) > 1 else "IE"


def component_names(indirect: str, scale: str) -> tuple:
    """Names of (TE, DE, IE, RES) on ``scale``; ``indirect`` is IE or GIE."""
    if scale == "probability":
        return ("TPE", "DPE", indirect[:-1] + "PE", "RPE")
    return ("TE", "DE", indirect, "RES")


@dataclass(frozen=True)
class Decomposition:
    """TE = DE + IE + RES on one scale, for one contrast or derivative
    point; the components are arrays when the request holds an array of
    evaluation points."""

    request: EffectRequest
    total: float
    direct: float
    indirect: float
    indirect_name: str = "IE"

    @property
    def residual(self):
        """RES = TE - DE - IE: the non-collapsibility term."""
        return self.total - self.direct - self.indirect

    def components(self) -> dict:
        return dict(zip(component_names(self.indirect_name,
                                        self.request.scale),
                        (self.total, self.direct, self.indirect,
                         self.residual)))

    def mediated_share(self):
        """(indirect/total, residual-nonzero flag).  The share is only a
        clean proportion when the residual is zero; the flag says so."""
        ratio = self.indirect / self.total if self.total != 0.0 else float("nan")
        return ratio, bool(abs(self.residual) > 1e-12)


def decompose(params: ParameterSet, request: EffectRequest) -> Decomposition:
    """TE / DE / IE / RES decomposition on the request's scale, for any
    number of mediators; the indirect component is the global one (GIE)
    when there are several."""
    return Decomposition(request, *(component(params, request, c)
                                    for c in ("TE", "DE", "IE")),
                         indirect_name(params.spec))


def average_probability_effects(params: ParameterSet, data: Dataset):
    """(ATPE, ADPE, AIPE): count-weighted means of the per-unit local
    probability effects, treatment derivative taken at each unit's x.
    Every unit with a positive count is evaluated in one array-valued
    decomposition."""
    spec = params.spec
    if spec.treatment.kind != "continuous":
        raise EffectError("average probability effects need a continuous treatment")
    if data.nrows == 0 or data.n == 0:
        raise DataError("empty data")
    x_name = spec.treatment.name
    needed = [c.name for c in spec.covariates
              if any(c.name in spec.predictors(r) for r in spec.responses)]
    w = np.asarray(data.counts, dtype=float)
    live = w > 0.0
    covs = {}
    for name in [x_name] + sorted(needed):
        if name not in data.columns:
            raise DataError(f"data has no column {name!r}")
        covs[name] = coerce_column(spec.variable(name),
                                   data.columns[name])[live]
    xs = covs.pop(x_name)
    d = decompose(params, EffectRequest.derivative(xs, covs, "probability"))
    w = w[live]
    return tuple(float(np.sum(w * c) / np.sum(w))
                 for c in (d.total, d.direct, d.indirect))
