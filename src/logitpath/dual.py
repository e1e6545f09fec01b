"""Forward-mode dual numbers, overflow-safe logistic primitives, and the
one-step marginalization kernel.

A Dual carries a value and a derivative with respect to one scalar seed;
either may be a numpy array, elementwise.  A Dual treatment value passed
to the marginal-logit evaluators of ``effects`` comes back as a Dual
holding the exact analytic derivative.

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


class Dual:
    """value + derivative pair with arithmetic closed under +, -, *."""

    __slots__ = ("val", "dot")
    # numpy defers mixed array-Dual arithmetic to the reflected Dual methods
    __array_ufunc__ = None

    def __init__(self, val, dot=0.0):
        self.val = val if isinstance(val, np.ndarray) else float(val)
        self.dot = dot if isinstance(dot, np.ndarray) else float(dot)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        return Dual(self.val + other, self.dot)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.dot * other.val + self.val * other.dot)
        return Dual(self.val * other, self.dot * other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"


def _softplus_float(t: float) -> float:
    # log(1 + e^t) without overflow: max(t, 0) + log1p(e^{-|t|})
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _expit_float(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def softplus(t):
    """log(1 + exp(t)) for floats, numpy arrays, or Duals of either."""
    if isinstance(t, Dual):
        return Dual(softplus(t.val), expit(t.val) * t.dot)
    if isinstance(t, np.ndarray):
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    return _softplus_float(float(t))


def expit(t):
    """Logistic function for floats, numpy arrays, or Duals of either."""
    if isinstance(t, Dual):
        p = expit(t.val)
        return Dual(p, p * (1.0 - p) * t.dot)
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
