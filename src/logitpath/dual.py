"""Overflow-safe logistic primitives and the study's one-step
marginalization.  Marginal logits, their derivatives and mediator
reductions sum over mediator corners in ``effects._log_ratio`` instead.

The study's true values (``simulation``) sum its one binary mediator W
out with ``lift``: with r0, r1 the log odds of Y=1 at W=0, 1 and rw the
log odds of W=1, everything else held fixed, the log odds of Y=1 are

    eta = softplus(r1 - r0 + core) - softplus(core) + r0,
    core = softplus(r0) - softplus(r1) + rw,

where core + y (r1 - r0) is the log odds of W=1 given Y=y.
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


def lift(r0, r1, rw):
    """Log odds of Y=1 with the binary W summed out, from Y's log odds
    r0, r1 at W=0, 1 and W's own log odds rw."""
    core = softplus(r0) - softplus(r1) + rw
    return softplus((r1 - r0) + core) - softplus(core) + r0
