"""Overflow-safe logistic primitives and the one-step marginalization
kernel.  The derivative of a marginal logit in a continuous treatment is
not taken here but by ``effects.marginal_logit_multi(..., slope=True)``.

Mediator reductions (``multi.marginalize``) and the study's true values
(``simulation``) sum binary mediators out one at a time; the marginal
logits of ``effects`` sum all of them at once over the mediator corners.
With r0, r1 the log odds of Y=1 at W=0, 1 and rw the log odds of W=1,
everything else held fixed, Bayes inversion gives the log odds of
W=1 given Y=y (``cond_logit``),

    g(y) = y * (r1 - r0) + log[(1 + exp r0) / (1 + exp r1)] + rw,

and summing W out gives the log odds of Y=1 (``lift``),

    eta = log[(1 + exp g(1)) / (1 + exp g(0))] + r0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit as _np_expit


def _softplus_float(t: float) -> float:
    # log(1 + e^t) without overflow: max(t, 0) + log1p(e^{-|t|})
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _expit_float(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def softplus(t):
    """log(1 + exp(t)) for floats or numpy arrays."""
    if isinstance(t, np.ndarray):
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    return _softplus_float(float(t))


def expit(t):
    """Logistic function for floats or numpy arrays."""
    if isinstance(t, np.ndarray):
        return _np_expit(t)
    return _expit_float(float(t))


def cond_logit(y, r0, r1, rw):
    """Log odds of W=1 given Y=y (0 or 1), from Y's log odds r0, r1 at
    W=0, 1 and W's own log odds rw."""
    return y * (r1 - r0) + softplus(r0) - softplus(r1) + rw


def lift(r0, r1, rw):
    """Log odds of Y=1 with the binary W summed out (arguments as in
    ``cond_logit``)."""
    core = softplus(r0) - softplus(r1) + rw
    return softplus((r1 - r0) + core) - softplus(core) + r0
