"""Shared fixtures: the bundled example fit, random recursive systems,
and a brute-force enumeration oracle for marginal logits.

The oracle sums the joint law over every mediator state using only
linear predictors and expit, so it shares no code with the recursive
marginalization it is used to check.
"""

import itertools
import math
from importlib import resources

import pytest
from hypothesis import settings

from logitpath import (Dataset, ParameterSet, SystemSpec, VariableSpec,
                       fit_system)


# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("deterministic")


def example_spec_dict():
    import json
    with resources.files("logitpath.data").joinpath(
            "example_model.json").open() as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def example_spec():
    return SystemSpec.from_json_dict(example_spec_dict())


@pytest.fixture(scope="session")
def example_data():
    with resources.files("logitpath.data").joinpath(
            "example_counts.json").open() as fh:
        import json
        rows = json.load(fh)
    return Dataset.from_rows(rows["rows"] if isinstance(rows, dict) else rows)


@pytest.fixture(scope="session")
def example_fit(example_spec, example_data):
    return fit_system(example_data, example_spec)


# -- random recursive systems ----------------------------------------------

def make_system(k, treatment="binary", covariate=False, extra_terms=(),
                mediator_terms=None):
    """A hierarchical k-mediator system.

    Y is regressed on X, every mediator, any covariate, plus extra_terms;
    mediator j is regressed on X, the mediators above it, and the covariate
    unless mediator_terms overrides that equation.  ``covariate`` is False,
    True (binary C) or "categorical" (C with levels a, b, c).
    """
    variables = [VariableSpec("Y", "outcome", "binary")]
    for j in range(1, k + 1):
        variables.append(VariableSpec(f"W{j}", "mediator", "binary",
                                      mediator_index=j))
    if treatment == "categorical":
        variables.append(VariableSpec("X", "treatment", "categorical",
                                      levels=(1, 2, 3)))
    else:
        variables.append(VariableSpec("X", "treatment", treatment))
    if covariate == "categorical":
        variables.append(VariableSpec("C", "covariate", "categorical",
                                      levels=("a", "b", "c")))
    elif covariate:
        variables.append(VariableSpec("C", "covariate", "binary"))

    cov = ["C"] if covariate else []
    y_terms = ["1", "X"] + cov + [f"W{j}" for j in range(1, k + 1)]
    y_terms += list(extra_terms)
    equations = {"Y": y_terms}
    for j in range(1, k + 1):
        terms = ["1", "X"] + cov + [f"W{i}" for i in range(j + 1, k + 1)]
        if mediator_terms and f"W{j}" in mediator_terms:
            terms = list(mediator_terms[f"W{j}"])
        equations[f"W{j}"] = terms
    return SystemSpec.build(variables, equations)


def random_params(spec, rng, scale=1.0):
    return ParameterSet.from_vector(
        spec, [rng.normal(0.0, scale) for _ in spec.flat_coords])


def expected_data_fit(rng, k=2, spec=None, total=4000.0):
    """Fit a system against fractional expected counts of a known truth.

    Works for any all-binary spec: treatment and covariates are given
    independent fair-coin laws, mediators and outcome follow the drawn
    coefficients.  The fit is exact at the truth, so the result is a
    well-conditioned FittedSystem without sampling noise.
    """
    if spec is None:
        spec = make_system(k)
    params = random_params(spec, rng, scale=0.7)
    exo = [spec.treatment.name] + [v.name for v in spec.covariates]
    chain = [m.name for m in reversed(spec.mediators)] + [spec.outcome.name]
    names = exo + chain
    cols = {n: [] for n in names}
    counts = []
    for state in itertools.product((0, 1), repeat=len(names)):
        assign = dict(zip(names, state))
        prob = 0.5 ** len(exo)
        for resp in chain:
            p = _expit(params.linear_predictor(resp, assign))
            prob *= p if assign[resp] == 1 else 1.0 - p
        for n in names:
            cols[n].append(assign[n])
        counts.append(total * prob)
    return fit_system(Dataset.from_patterns(cols, counts), spec)


def random_system(rng, k=None, treatment=None, covariate=None,
                  interactions=None):
    """A random spec/parameter pair for property tests."""
    if k is None:
        k = int(rng.integers(1, 4))
    if treatment is None:
        treatment = ("binary", "continuous",
                     "categorical")[rng.integers(0, 3)]
    if covariate is None:
        covariate = bool(rng.integers(0, 2))
    if interactions is None:
        interactions = bool(rng.integers(0, 2))
    extra = []
    if interactions:
        extra.append("X:W1")
        if covariate:
            extra.append("C:W1")
    spec = make_system(k, treatment, covariate, extra_terms=extra)
    return spec, random_params(spec, rng)


def random_treatment_pair(spec, rng):
    """Two distinct admissible treatment values for a contrast."""
    kind = spec.treatment.kind
    if kind == "binary":
        return 1, 0
    if kind == "categorical":
        a, b = rng.choice(len(spec.treatment.levels), 2, replace=False)
        return spec.treatment.levels[a], spec.treatment.levels[b]
    x0 = float(rng.normal(0.0, 1.5))
    return x0 + float(rng.uniform(0.5, 2.0)), x0


def random_covariates(spec, rng):
    out = {}
    for var in spec.covariates:
        if var.kind == "binary":
            out[var.name] = int(rng.integers(0, 2))
        elif var.kind == "categorical":
            out[var.name] = var.levels[rng.integers(0, len(var.levels))]
        else:
            out[var.name] = float(rng.normal())
    return out


# -- enumeration oracle ----------------------------------------------------

def enum_prob(params, x, covariates=None):
    """P(Y=1 | X=x, C=c) by summing the joint over all mediator states."""
    spec = params.spec
    meds = [v.name for v in spec.mediators]
    base = {spec.treatment.name: x}
    if covariates:
        base.update(covariates)
    total = 0.0
    for state in itertools.product((0, 1), repeat=len(meds)):
        assign = dict(base)
        assign.update(dict(zip(meds, state)))
        prob = 1.0
        for name, w in zip(meds, state):
            p = _expit(params.linear_predictor(name, assign))
            prob *= p if w == 1 else 1.0 - p
        prob *= _expit(params.linear_predictor("Y", assign))
        total += prob
    return total


def enum_g(params, j, y, x, w_above=None, covariates=None):
    """Log odds of W_j=1 given Y=y, X=x, the outer mediators at
    ``w_above`` and the covariates, by summing W_1..W_{j-1} out of the
    joint law."""
    spec = params.spec
    inner = [v.name for v in spec.mediators[:j]]
    base = {spec.treatment.name: x, **(covariates or {}), **(w_above or {})}
    odds = [0.0, 0.0]
    for state in itertools.product((0, 1), repeat=j):
        assign = dict(base)
        assign.update(dict(zip(inner, state)))
        prob = 1.0
        for name, w in zip(inner + [spec.outcome.name], state + (y,)):
            p = _expit(params.linear_predictor(name, assign))
            prob *= p if w == 1 else 1.0 - p
        odds[state[-1]] += prob
    return math.log(odds[1] / odds[0])


def enum_logit(params, x, covariates=None):
    p = enum_prob(params, x, covariates)
    return math.log(p / (1.0 - p))


def _expit(t):
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def assert_close(a, b, tol=1e-10, what=""):
    assert abs(a - b) <= tol, f"{what}: {a!r} vs {b!r} (diff {abs(a-b):.3e})"
