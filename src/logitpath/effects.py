"""Marginal logits and their decomposition into effects.

Every marginal logit runs one compiled corner program.  For a setting
(the treatment value, the fixed covariates and any outer mediators held
at w_{>j}) it holds the design D of Y and of W_1..W_j at all 2^j corners
of W_1..W_j, built once and kept on the spec (``_program``).  One
evaluation is one matmul, eta = D theta, then the log likelihood of each
corner w and outcome y,

    l_y(w) = y eta_Y - softplus(eta_Y) + sum_i [w_i eta_i - softplus(eta_i)],

and a difference of two log-sum-exps over corners (``_log_ratio``):
l_1 against l_0 is the marginal logit (``marginal_logit_multi``), and
l_y at W_j = 1 against W_j = 0 is the log odds of W_j given Y = y
(``g_recursive``, from which ``deltas`` reads its single-mediator
differences).  ``marginal_logit_multi(..., slope=True)`` gives the
derivative in a continuous treatment too, the difference of the posterior
means of dl/dx; arrays of settings (one per row) give many points at
once.  ``_corner_design`` builds the signed design of any such sum, and
``multi``'s mediator reductions run their corner sums on it and on
``_joint(..., grad=True)``, whose dl/dtheta gives their exact Jacobian.
Each effect component is a contrast
(or derivative) of the marginal logit under a coefficient mask
(``component_mask``, built once per spec), evaluated by ``component``;
``decompose`` runs TE, DE and IE as one stack of masked coefficients:

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
import reprlib
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .fitting import DataError, Dataset, coerce_columns, expit, softplus
from .model import (Column, ParameterSet, SystemSpec, ZeroMask, _is,
                    column_value)

SCALES = ("logodds", "probability")
PROGRAMS_KEPT = 64      # settings kept per spec and j; the oldest goes first


class EffectError(ValueError):
    """An effect request that does not fit the system at hand."""


# -- the compiled corner program --------------------------------------------

class _Program(NamedTuple):
    """A compiled setting.  ``corners`` holds, for each likelihood row of
    ``_corner_design`` (a response at 0, at 1, then every other variable
    whose likelihood enters), the values of every column's factors that
    change across the corners, times the sign 1 - 2 (row's value), zero
    outside the row's own equation: one (*shape, p) block per row of
    ``_joint``'s z.  ``collect`` (2, rows) sums -softplus(z) over the rows
    of each value of the response.  s = s0 + x s1 is the product of
    every column's other factors at the setting, so D = corners * s (s1
    is None unless the treatment is continuous, when s0 is taken at
    x = 0: a ``Term`` holds each variable once, so D is affine in x).  An
    array of settings gives s0 and s1 trailing row axes, and every result
    the same trailing axes."""

    corners: np.ndarray
    collect: np.ndarray
    s0: np.ndarray
    s1: Optional[np.ndarray]


def _split(col: Column, names, inside: bool) -> Column:
    """``col`` with only the factors whose variable is (or is not, when
    ``inside`` is False) in ``names``."""
    return Column(tuple(f for f in col.factors if (f[0] in names) == inside))


def _corner_design(spec: SystemSpec, rows, corners: Mapping,
                   shape: tuple) -> tuple:
    """``_Program.corners`` and ``collect`` of the likelihood ``rows``,
    (response, value) pairs: the response at 0, then at 1, then every
    other variable whose likelihood enters, each value 0/1 at each
    corner.  ``corners`` maps each variable that changes across the
    corners to its values there, laid out as ``shape``."""
    design = np.zeros((len(rows), math.prod(shape), len(spec.flat_coords)))
    for r, (resp, value) in enumerate(rows):
        sign = 1 - 2 * np.asarray(value, float)
        for i, col in enumerate(spec.columns(resp), spec.slices[resp].start):
            design[r, :, i] = sign * column_value(
                _split(col, corners, True), corners)
    design = design.reshape((len(rows),) + shape + design.shape[-1:])
    collect = -np.hstack([np.eye(2), np.ones((2, len(rows) - 2))])
    for a in (design, collect):
        a.setflags(write=False)
    return design, collect


def _setting_design(spec: SystemSpec, j: int, x, fixed: Mapping,
                    rows: tuple) -> tuple:
    """(s0, s1) of ``_Program``, with ``rows`` trailing axes, at treatment
    value ``x`` and the ``fixed`` covariates and outer mediators."""
    names = [m.name for m in spec.mediators[:j]]

    def at(xv):
        values = {spec.treatment.name: xv, **fixed}
        s = np.zeros((len(spec.flat_coords),) + rows)
        for resp in [spec.outcome.name] + names:
            for i, col in enumerate(spec.columns(resp),
                                    spec.slices[resp].start):
                s[i] = column_value(_split(col, names, False), values)
        return s

    s0, s1 = (at(x), None) if spec.treatment.kind != "continuous" else (
        at(0.0), at(1.0))
    if s1 is not None:
        s1 -= s0
        s1.setflags(write=False)
    s0.setflags(write=False)    # kept programs are shared by every caller
    return s0, s1


def as_index(value, what: str, low=-math.inf, high=math.inf) -> int:
    """``value`` as an int in low..high: a whole number (``model._is``)
    or the string of an integer (as the CLI passes one); otherwise an
    EffectError that names the value."""
    try:
        index = int(value) if isinstance(value, str) else value
    except ValueError:
        index = None
    if not _is(index, int):
        raise EffectError(f"{what} must be an integer, not "
                          f"{reprlib.repr(value)}")
    index = int(index)
    if not low <= index <= high:
        raise EffectError(f"{what} {index} out of range {low}..{high}")
    return index


def _check_slope(spec: SystemSpec, slope: bool):
    """Refuses a derivative (``slope``) in a treatment not continuous."""
    var = spec.treatment
    if slope and var.kind != "continuous":
        raise EffectError(f"a derivative needs a continuous treatment; "
                          f"{var.name!r} is {var.kind}")


def _check_mediators(spec: SystemSpec):
    if not spec.mediators:
        raise EffectError("system declares no mediators")


def _check_setting(spec: SystemSpec, j: int, x, covariates: Mapping,
                   w_above: Mapping) -> tuple:
    """The shape a setting's arrays broadcast to; refuses a bad setting."""
    setting = [(spec.treatment.name, x), *covariates.items(),
               *w_above.items()]
    for name, value in setting:
        var = spec.by_name.get(name)
        role = var.role if var else "undeclared"
        if name in covariates and role != "covariate":
            raise EffectError(f"cannot fix {name!r} ({role}): only "
                              f"covariates can be fixed")
        if name in w_above and (role != "mediator"
                                or var.mediator_index <= j):
            raise EffectError(f"cannot hold {name!r} ({role}) at a value: "
                              f"only the mediators outward of mediator {j} "
                              f"can be")
        if not var.takes(value):
            raise EffectError(var.refusal(value))
    arrays = {n: v.shape for n, v in setting if isinstance(v, np.ndarray)}
    try:
        return np.broadcast_shapes(*arrays.values())
    except ValueError:
        shapes = ", ".join(f"{n!r} {shape}" for n, shape in arrays.items())
        raise EffectError(f"the setting's arrays do not broadcast to one "
                          f"shape: {shapes}") from None


def _program(spec: SystemSpec, j: int, x, covariates: Optional[Mapping],
             w_above: Optional[Mapping] = None) -> _Program:
    """The corner program of summing W_1..W_j out at a setting, compiled
    and checked once and kept on the spec.  The key leaves a continuous
    treatment value out, so the kept settings stay few; an array of
    settings is compiled for its call alone."""
    covariates, w_above = covariates or {}, w_above or {}
    continuous = spec.treatment.kind == "continuous"
    if continuous and not spec.treatment.takes(x):     # x is not in the key
        raise EffectError(spec.treatment.refusal(x))
    if j not in spec.programs:     # W_1 changes fastest
        w = (np.arange(1 << j) >> np.arange(j)[:, None]) & 1
        corners = {m.name: v for m, v in zip(spec.mediators, w.astype(float))}
        spec.programs[j] = *_corner_design(
            spec, [(spec.outcome.name, 0), (spec.outcome.name, 1),
                   *corners.items()], corners, (1 << j,)), {}
    corners, collect, kept = spec.programs[j]
    key = program = None
    if not isinstance(x, np.ndarray):
        try:    # types too: True must not find the program of 1
            key = (None if continuous else (x, type(x)),
                   tuple(sorted(covariates.items())),
                   tuple(sorted(w_above.items())),
                   tuple(map(type, covariates.values())),
                   tuple(map(type, w_above.values())))
            program = kept.get(key)
        except TypeError:   # an array of values, or no value at all
            key = None
    if program is None:
        rows = _check_setting(spec, j, x, covariates, w_above)
        program = _Program(corners, collect, *_setting_design(
            spec, j, x, {**covariates, **w_above}, rows))
        if key is not None:
            if len(kept) >= PROGRAMS_KEPT:
                del kept[next(iter(kept))]
            kept[key] = program
    return program


def _joint(program: _Program, theta: np.ndarray, x, slope=False,
           grad=False) -> tuple:
    """(eta, its slope, l, its slope) at coefficients ``theta``: the
    response's linear predictor at each corner (*shape, rows...) and the
    log likelihood l[y, *corner, rows...] of the response at y and the
    corner.  With z = D theta, one matmul, w eta - softplus(eta) =
    -softplus(+-eta) is -softplus(z), and l sums it over the response's
    row for y and every other row.  A stack of vectors, theta (*stack,
    p), gives every result the stack's axes last, each vector's bits its
    own call's.
    The slopes are in x with ``slope``, in theta on a last axis with
    ``grad`` (one vector, one setting), else None."""
    corners, collect, s0, s1 = program
    s = s0 if s1 is None else s0 + x * s1
    stack = theta.shape[:-1]
    shape = corners.shape[:-1] + s.shape[1:] + stack
    corners = corners.reshape(-1, len(s))
    if s.ndim > 1:   # rows of settings: one trailing axis for the matmul
        theta = theta.reshape(theta.shape + (1,) * (s.ndim - 1))
    z = _dot(corners, s * theta, shape, stack)
    ell = _dot(collect, softplus(z), (2,) + z.shape[1:])
    if grad:    # z is linear in theta
        dz = (corners * s).reshape(shape + s.shape)
        q = expit(z)[..., None] * dz
    elif slope:
        dz = _dot(corners, s1 * theta, shape, stack)
        q = expit(z) * dz
    else:
        return z[0], None, ell, None
    return z[0], dz[0], ell, _dot(collect, q, (2,) + q.shape[1:])


def _dot(a, t, shape, stack=()):
    """a @ t as ``shape``, the axes of t after its first flattened into
    one; a ``stack`` of vectors leads t, one slice of a batched matmul
    each, and its axes go last."""
    if stack:
        t = np.matmul(a, t.reshape((math.prod(stack), a.shape[1], -1)))
        return np.moveaxis(t, 0, -1).reshape(shape)
    t = np.matmul(a, t.reshape(len(t), -1) if t.ndim > 2 else t)
    return t.reshape(shape)


def _value(a):
    """A result as a float, or as the array of one per row."""
    return a if a.ndim else float(a)


def _log_ratio(a, delta, d=None, ddelta=None):
    """log sum exp(a + delta) - log sum exp a, summing over the first
    axis: the log of the mean of exp(delta) under the posterior
    pi = exp a / sum exp a, taken as m + log1p(sum pi expm1(delta - m))
    with m the mean of delta under pi.  The log1p term is small when
    delta varies little, so corners that differ only in a mediator that
    delta does not depend on (one that Y ignores) add little rounding
    noise, where two log-sum-exps of the whole l would not.  With the
    slopes ``d`` and ``ddelta`` in x, the pair with the slope: the mean of
    d + ddelta under the posterior given exp(delta) less the mean of d
    under pi.  Where delta spans beyond expm1's range, so that this is
    not finite (its sum is not), the whole call is the difference of the
    two log-sum-exps, each by ``np.logaddexp``, stable pair by pair."""
    u = np.exp(a - np.maximum.reduce(a, 0))
    u = u / np.add.reduce(u, 0)
    m = np.add.reduce(u * delta, 0)
    grow = u * np.expm1(delta - m)
    z = np.add.reduce(grow, 0)
    val = m + np.log1p(z)
    if not math.isfinite(np.add.reduce(val, None) if val.ndim else val):
        b = a + delta
        top = np.logaddexp.reduce(b, 0)
        val = top - np.logaddexp.reduce(a, 0)
        # u + grow is the posterior exp(b - top), and 1 + z is 1
        grow, z = np.exp(b - top) - u, 0.0
    if d is None:
        return _value(val)
    slope = np.add.reduce((u + grow) * (d + ddelta), 0) / (1.0 + z)
    return _value(val), _value(slope - np.add.reduce(u * d, 0))


def g_recursive(params: ParameterSet, j: int, y: int, x,
                w_above: Optional[Mapping] = None,
                covariates: Optional[Mapping] = None):
    """Log odds of W_j=1 given Y=y, X=x and W_{>j}, with W_{<j} summed out.

    ``w_above`` maps the names of the outer mediators W_{j+1}..W_k to 0/1
    values; it can be omitted when nothing outward of j is referenced.
    """
    j = as_index(j, "mediator index", 1, len(params.spec.mediators))
    y = as_index(y, "y", 0, 1)
    ell = _joint(_program(params.spec, j, x, covariates, w_above),
                 params.vector, x)[2]
    half = ell[y].reshape((2, -1) + ell.shape[2:])  # W_j changes slowest
    return _log_ratio(half[0], half[1] - half[0])


def marginal_logit_multi(params: ParameterSet, x,
                         covariates: Optional[Mapping] = None, slope=False):
    """Log odds of Y=1 given X=x (and covariates), all mediators summed
    out; with ``slope``, the pair (log odds, its derivative in x) for a
    continuous treatment."""
    _check_slope(params.spec, slope)
    k = len(params.spec.mediators)
    eta, deta, ell, dell = _joint(_program(params.spec, k, x, covariates),
                                  params.vector, x, slope)
    if not k:   # Y's own linear predictor
        return (_value(eta[0]), _value(deta[0])) if slope else _value(eta[0])
    # l_1 = l_0 + eta_Y at every corner
    return _log_ratio(ell[0], eta, dell[0] if slope else None, deta)


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
    eta, _, ell, _ = _joint(_program(spec, 1, x, covariates), np.stack([
        params.vector, component_mask(spec, "IE").apply(params).vector]), x)
    # g_recursive's log odds of W given Y = 0, 1, for each vector
    g0, g1 = (_log_ratio(ell[y][:1], ell[y][1:] - ell[y][:1]) for y in (0, 1))
    p = expit(np.stack([eta[1], eta[0], g1, g0]))
    dy, dw = p[0] - p[1], p[2] - p[3]
    return _value(dy[..., 0]), _value(dw[..., 0]), _value(dw[..., 1])


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
        elif self.at is None:
            raise EffectError("derivative mode needs an evaluation point")

    @property
    def treatment_values(self) -> tuple:
        """(x1, x0) of a contrast, (at,) of a derivative."""
        return (self.x1, self.x0) if self.mode == "contrast" else (self.at,)

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
    _check_mediators(params.spec)
    masked = component_mask(params.spec, name, path).apply(params)
    covs = dict(request.covariates)
    if request.mode == "contrast":
        return _effect(request, logit_fn(masked, request.x1, covs),
                       logit_fn(masked, request.x0, covs))
    return _effect(request, *logit_fn(masked, request.at, covs, slope=True))


def _effect(request: EffectRequest, a, b):
    """The contrast a - b of two marginal logits, or the slope b of the
    marginal logit a, on the request's scale."""
    if request.scale == "logodds":
        return a - b if request.mode == "contrast" else b
    if request.mode == "contrast":
        return expit(a) - expit(b)
    p = expit(a)
    return p * (1.0 - p) * b


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
        """(indirect/total, residual-nonzero flag), elementwise for arrays
        and nan where the total is zero.  The share is only a clean
        proportion when the residual is zero; the flag says so."""
        total = np.asarray(self.total, dtype=float)
        ratio = np.divide(self.indirect, total, where=total != 0.0,
                          out=np.full(total.shape, np.nan))
        flag = np.abs(self.residual) > 1e-12
        return (ratio, flag) if ratio.ndim else (float(ratio), bool(flag))


def decompose(params: ParameterSet, request: EffectRequest) -> Decomposition:
    """TE / DE / IE / RES decomposition on the request's scale, for any
    number of mediators; the indirect component is the global one (GIE)
    when there are several."""
    return _decompose(params.spec, params.vector, request)


def _decompose(spec: SystemSpec, theta: np.ndarray,
               request: EffectRequest) -> Decomposition:
    """``decompose`` at ``theta``, one vector or a stack (vectors, p) that
    gives each component a last axis: TE, DE and IE masked copies of theta
    in one stack, one program per treatment value.  Each component sums
    its own corners, so one vector gives ``component``'s bits; a stack
    sums 8 or more corners in sequence, not pairwise, so it may differ
    from per-vector calls in the last bits."""
    _check_mediators(spec)
    slope = request.mode == "derivative"
    _check_slope(spec, slope)
    stack = np.stack([np.where(component_mask(spec, c).zeroed, 0.0, theta)
                      for c in ("TE", "DE", "IE")])
    logits = []
    for x in request.treatment_values:
        eta, deta, ell, dell = _joint(_program(
            spec, len(spec.mediators), x, request.covariates), stack, x, slope)
        terms = (ell[0], eta, dell[0], deta) if slope else (ell[0], eta)
        logits.append([_log_ratio(*a) for a in zip(*(   # one per component
            np.moveaxis(t, -theta.ndim, 0) for t in terms))])
    return Decomposition(request, *(
        _effect(request, *pair) for pair in (
            logits[0] if slope else zip(*logits))), indirect_name(spec))


def average_probability_effects(params: ParameterSet, data: Dataset):
    """(ATPE, ADPE, AIPE): count-weighted means of the per-unit local
    probability effects, treatment derivative taken at each unit's x.
    Every unit with a positive count is evaluated in one array-valued
    decomposition."""
    spec = params.spec
    if spec.treatment.kind != "continuous":
        raise EffectError(f"average probability effects need a continuous "
                          f"treatment; {spec.treatment.name!r} is "
                          f"{spec.treatment.kind}")
    if data.nrows == 0 or data.n == 0:
        raise DataError("empty data")
    needed = [c.name for c in spec.covariates
              if any(c.name in spec.predictors(r) for r in spec.responses)]
    w = np.asarray(data.counts, dtype=float)
    live = w > 0.0
    covs = {name: column[live] for name, column in coerce_columns(
        spec, data, [spec.treatment.name] + sorted(needed)).items()}
    xs = covs.pop(spec.treatment.name)
    d = decompose(params, EffectRequest.derivative(xs, covs, "probability"))
    w = w[live]
    return tuple(float(np.sum(w * c) / np.sum(w))
                 for c in (d.total, d.direct, d.indirect))
