"""Property tests over random systems with one to five mediators, and
over their explicit reductions (two to five mediators); and of the
stacked Newton solver against ``irls``.

Examples are drawn by hypothesis under the derandomized profile set in
conftest, so every run checks the same systems.
"""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit as scipy_expit

from logitpath import (Dataset, EffectRequest, FittedSystem, ParameterSet,
                       SystemSpec, ZeroMask, average_probability_effects,
                       decompose, g_recursive, marginal_logit_multi,
                       marginalize, marginalize_inner)
from logitpath.effects import (_decompose, _joint, _program, component,
                               component_mask)
from logitpath import fitting
from logitpath.fitting import irls, irls_stack, tabulate
from logitpath.inference import STEP_SCALE
from logitpath.model import column_value
from logitpath.multi import PathSpec, _reduce
from logitpath.simulation import (SimConfig, _CELLS, _Y_DESIGN, _draw,
                                  _seed_states)
from conftest import _expit, enum_g, enum_logit, enum_prob, make_system

TREATMENTS = ("binary", "categorical", "continuous")
COVARIATES = (False, True, "categorical")


@st.composite
def systems(draw, treatments=TREATMENTS, ks=(1, 4), sparse=False,
            covariates=COVARIATES, bound=2.0):
    """A random k-mediator system (k in the closed range ``ks``) with
    coefficients in [-bound, bound].  ``sparse`` mediator equations keep
    a random subset of their predictors."""
    k = draw(st.integers(*ks))
    treatment = draw(st.sampled_from(treatments))
    covariate = draw(st.sampled_from(covariates))
    extra = ["X:W1"] if k and draw(st.booleans()) else []
    terms = None
    if sparse:
        allowed = ["X"] + (["C"] if covariate else [])
        terms = {f"W{j}": ["1"] + draw(st.lists(
            st.sampled_from(allowed + [f"W{i}" for i in range(j + 1, k + 1)]),
            unique=True)) for j in range(1, k + 1)}
    spec = make_system(k, treatment, covariate, extra_terms=extra,
                       mediator_terms=terms)
    n = len(spec.flat_coords)
    coefs = draw(st.lists(st.floats(-bound, bound), min_size=n, max_size=n))
    return ParameterSet.from_vector(spec, coefs)


@given(st.data())
def test_the_coefficient_vector_is_the_only_layout(data):
    params = data.draw(systems())
    spec, vec = params.spec, params.vector
    same = vec.tobytes()
    assert ParameterSet.from_vector(spec, vec).vector.tobytes() == same
    again = ParameterSet.from_nested(spec, params.nested(), strict=True)
    assert again.vector.tobytes() == same
    fitted = FittedSystem(spec, params, np.eye(len(spec.flat_coords)), {},
                          1.0)
    doc = json.loads(json.dumps(fitted.to_json_dict()))
    assert FittedSystem.from_json_dict(doc).params.vector.tobytes() == same

    for resp, col in spec.flat_coords:
        label = spec.column_label(col)
        assert params.get(resp, label) == vec[spec.coord_index[resp, col]]
    resp, col = data.draw(st.sampled_from(spec.flat_coords))
    i = spec.coord_index[resp, col]
    moved = params.replace({(resp, spec.column_label(col)): vec[i] + 1.0})
    assert list(np.flatnonzero(moved.vector != vec)) == [i]

    resp = data.draw(st.sampled_from(spec.responses))
    var = data.draw(st.sampled_from(spec.ordering))
    masked = ZeroMask.from_targets(spec, [(resp, var)]).apply(params).vector
    hit = [r == resp and var in c.term.factors for r, c in spec.flat_coords]
    assert np.array_equal(masked, np.where(hit, 0.0, vec))

    with pytest.raises(ValueError):
        params.vector[0] = 1.0


def treatment_values(spec):
    kind = spec.treatment.kind
    if kind == "binary":
        return st.just((1, 0))
    if kind == "categorical":
        return st.permutations(spec.treatment.levels).map(lambda p: p[:2])
    return st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).filter(
        lambda t: t[0] != t[1])


def covariate_settings(spec):
    return st.fixed_dictionaries({
        v.name: st.sampled_from(v.levels if v.kind == "categorical"
                                else (0.0, 1.0))
        for v in spec.covariates})


def logit_tolerance(p):
    # the oracle loses digits in log(1 - p) (or log p) near the boundary
    return 1e-10 + 1e-14 / min(p, 1.0 - p)


@given(st.data())
def test_marginal_logit_multi_equals_the_enumeration(data):
    params = data.draw(systems())
    x, _ = data.draw(treatment_values(params.spec))
    cov = data.draw(covariate_settings(params.spec))
    want = enum_logit(params, x, cov)
    got = marginal_logit_multi(params, x, cov)
    assert abs(got - want) <= logit_tolerance(enum_prob(params, x, cov))


@given(st.data())
def test_components_add_up_to_the_total(data):
    params = data.draw(systems())
    spec = params.spec
    a, b = data.draw(treatment_values(spec))
    cov = data.draw(covariate_settings(spec))
    requests = [EffectRequest.contrast(a, b, cov, scale)
                for scale in ("logodds", "probability")]
    if spec.treatment.kind == "continuous":
        requests += [EffectRequest.derivative(a, cov, scale)
                     for scale in ("logodds", "probability")]
    for req in requests:
        d = decompose(params, req)
        scale = max(1.0, abs(d.total), abs(d.direct), abs(d.indirect))
        assert abs(d.direct + d.indirect + d.residual - d.total) \
            <= 1e-12 * scale
        assert component(params, req, "RES") == d.residual
    te = decompose(params, requests[0]).total
    want = enum_logit(params, a, cov) - enum_logit(params, b, cov)
    tol = (logit_tolerance(enum_prob(params, a, cov))
           + logit_tolerance(enum_prob(params, b, cov)))
    assert abs(te - want) <= tol


@given(st.data())
def test_g_recursive_at_every_j_equals_the_enumeration(data):
    params = data.draw(systems(ks=(1, 5), covariates=("categorical",),
                               bound=1.0))
    spec = params.spec
    x, _ = data.draw(treatment_values(spec))
    cov = data.draw(covariate_settings(spec))
    k = len(spec.mediators)
    for j in range(1, k + 1):
        outer = [m.name for m in spec.mediators[j:]]
        w_above = dict(zip(outer, data.draw(st.lists(
            st.sampled_from((0, 1)), min_size=k - j, max_size=k - j))))
        for y in (0, 1):
            want = enum_g(params, j, y, x, w_above, cov)
            got = g_recursive(params, j, y, x, w_above, cov)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@given(st.data())
def test_derivative_components_equal_a_central_difference(data):
    params = data.draw(systems(("continuous",), ks=(1, 5),
                               covariates=("categorical",), bound=1.0))
    spec = params.spec
    at = data.draw(st.floats(-2.0, 2.0))
    cov = data.draw(covariate_settings(spec))
    k = len(spec.mediators)
    h = 1e-4
    named = [("TE", None), ("DE", None), ("IE", None),
             ("PSIE", PathSpec.parse([1])), ("PSIE", PathSpec.parse([k]))]
    for scale, f in (("logodds", enum_logit), ("probability", enum_prob)):
        req = EffectRequest.derivative(at, cov, scale)
        for name, path in named:
            masked = component_mask(spec, name, path).apply(params)
            want = (f(masked, at + h, cov) - f(masked, at - h, cov)) / (2 * h)
            got = component(params, req, name, path)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


@given(st.data())
def test_a_stack_of_vectors_is_a_loop_of_single_calls(data):
    # each vector of a stack is one slice of a batched matmul, so every
    # result along the stack's last axis is its own call's, bit for bit
    spec = data.draw(systems(ks=(0, 5), covariates=("categorical",))).spec
    p = len(spec.flat_coords)
    stack = np.array(data.draw(st.lists(st.lists(
        st.floats(-2.0, 2.0), min_size=p, max_size=p), min_size=1,
        max_size=4)))
    x, _ = data.draw(treatment_values(spec))
    cov = data.draw(covariate_settings(spec))
    rows = data.draw(st.integers(0, 3))
    if rows:    # rows of settings: C, and a continuous x, one per row
        cov = {"C": np.array(data.draw(st.lists(st.sampled_from(
            spec.variable("C").levels), min_size=rows, max_size=rows)),
            dtype=object)}
        if spec.treatment.kind == "continuous":
            x = np.array(data.draw(st.lists(st.floats(-3.0, 3.0),
                                            min_size=rows, max_size=rows)))
    slope = spec.treatment.kind == "continuous" and data.draw(st.booleans())
    program = _program(spec, len(spec.mediators), x, cov)
    stacked = _joint(program, stack, x, slope)
    for i, theta in enumerate(stack):
        for got, want in zip(stacked, _joint(program, theta, x, slope)):
            assert (got is None) == (want is None)
            if want is not None:
                got = np.ascontiguousarray(got[..., i])
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def decompose_requests(data, spec):
    """Contrasts, and derivatives for a continuous X, on both scales, at
    one setting or at 1-3 rows of settings (C, and a continuous x, one per
    row); returns (rows, requests)."""
    a, b = data.draw(treatment_values(spec))
    cov = data.draw(covariate_settings(spec))
    rows = data.draw(st.integers(0, 3))
    continuous = spec.treatment.kind == "continuous"
    if rows:
        cov = {"C": np.array(data.draw(st.lists(st.sampled_from(
            spec.variable("C").levels), min_size=rows, max_size=rows)),
            dtype=object)}
        if continuous:
            a = np.array(data.draw(st.lists(st.floats(-3.0, 3.0),
                                            min_size=rows, max_size=rows)))
            b = a - 0.5
    scales = ("logodds", "probability")
    return rows, ([EffectRequest.contrast(a, b, cov, s) for s in scales]
                  + [EffectRequest.derivative(a, cov, s)
                     for s in scales if continuous])


LOGISTIC_EDGES = (709.0, -709.0, 710.0, -710.0, 1e308, -1e308, math.inf,
                  -math.inf, math.nan)


@given(st.lists(st.floats(), max_size=20))
def test_a_float_and_an_array_take_one_expit_and_one_softplus(ts):
    # bit for bit (a nan only as a nan: IEEE leaves its sign to the
    # arithmetic), with no warning, even where exp(-t) overflows, and
    # expit within 2 ulp of scipy's
    ts = np.array(ts + list(LOGISTIC_EDGES))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (fitting.expit, fitting.softplus):
            whole, each = f(ts), [f(float(t)) for t in ts]
            assert all(type(e) is float for e in each)
            each = np.array(each)
            nan = np.isnan(whole)
            assert np.array_equal(nan, np.isnan(each))
            assert whole[~nan].tobytes() == each[~nan].tobytes()
    oracle = scipy_expit(ts)
    got = fitting.expit(ts)
    assert np.array_equal(np.isnan(got), np.isnan(oracle))
    live = ~np.isnan(got)     # expit is >= 0: ulps are integer steps
    ulps = np.abs(got[live].view(np.int64) - oracle[live].view(np.int64))
    assert ulps.max() <= 2


@given(st.data())
def test_decompose_is_its_three_component_calls(data):
    # TE, DE and IE run as one stack, each summing its own corners, so
    # each is its own component call bit for bit, a float at one setting
    params = data.draw(systems(ks=(1, 5), covariates=("categorical",)))
    for req in decompose_requests(data, params.spec)[1]:
        d = decompose(params, req)
        for got, name in zip((d.total, d.direct, d.indirect),
                             ("TE", "DE", "IE")):
            want = component(params, req, name)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@given(st.data())
def test_a_stacked_decomposition_is_a_loop_of_decompositions(data):
    # bit for bit at k <= 2 (at most 4 corners), which covers the study's
    # k = 1, on both scales: a float logit and an array of them take one
    # expit with the same bits.  At k >= 3 a stack sums its 8 or more
    # corners in sequence where one vector sums them pairwise: on 10,000
    # random draws the largest difference was 1.8e-15 of max(1, |value|),
    # held here to 4e-15.
    spec = data.draw(systems(ks=(1, 5), covariates=("categorical",))).spec
    p = len(spec.flat_coords)
    stack = np.array(data.draw(st.lists(st.lists(
        st.floats(-2.0, 2.0), min_size=p, max_size=p), min_size=1,
        max_size=4)))
    rows, requests = decompose_requests(data, spec)
    for req in requests:
        exact = len(spec.mediators) <= 2
        stacked = _decompose(spec, stack, req).components()
        for i, theta in enumerate(stack):
            one = decompose(ParameterSet.from_vector(spec, theta),
                            req).components()
            for got, want in zip(stacked.values(), one.values()):
                got = np.asarray(got)[..., i]
                assert got.shape == np.shape(want)
                if exact:
                    assert got.tobytes() == np.asarray(want).tobytes()
                else:
                    assert np.all(np.abs(got - want) <= 4e-15 * np.maximum(
                        1.0, np.abs(want)))


def per_row_average_probability_effects(params, data):
    """The reference: one scalar decomposition per data row."""
    spec = params.spec
    total = np.zeros(3)
    for i in range(data.nrows):
        if data.counts[i] == 0.0:
            continue
        setting = {v.name: data.columns[v.name][i] for v in spec.covariates}
        req = EffectRequest.derivative(float(data.columns["X"][i]), setting,
                                       "probability")
        d = decompose(params, req)
        total += data.counts[i] * np.array([d.total, d.direct, d.indirect])
    return total / np.sum(data.counts)


@given(st.data())
def test_batched_average_probability_effects_equal_the_row_loop(data):
    params = data.draw(systems(treatments=("continuous",)))
    spec = params.spec
    rows = data.draw(st.lists(
        st.tuples(st.floats(-3.0, 3.0), covariate_settings(spec),
                  st.integers(0, 3)),
        min_size=1, max_size=12).filter(lambda r: any(c for _, _, c in r)))
    columns = {"X": [x for x, _, _ in rows]}
    for v in spec.covariates:
        columns[v.name] = [setting[v.name] for _, setting, _ in rows]
    dataset = Dataset.from_patterns(columns, [c for _, _, c in rows])
    batched = average_probability_effects(params, dataset)
    reference = per_row_average_probability_effects(params, dataset)
    for got, want in zip(batched, reference):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


# -- explicit reductions ---------------------------------------------------

DISCRETE = ("binary", "categorical")


def discrete_settings(spec, names):
    """Every setting of the discrete variables ``names``."""
    axes = [spec.variable(n).levels or (0.0, 1.0) for n in names]
    return [dict(zip(names, combo)) for combo in itertools.product(*axes)]


@given(st.data())
def test_inner_reduction_keeps_the_marginal_logit(data):
    params = data.draw(systems(DISCRETE, ks=(2, 4)))
    spec = params.spec
    reduced = marginalize_inner(params)
    assert len(reduced.spec.mediators) == len(spec.mediators) - 1
    names = [spec.treatment.name] + [c.name for c in spec.covariates]
    for setting in discrete_settings(spec, names):
        x = setting.pop(spec.treatment.name)
        want = enum_logit(params, x, setting)
        got = marginal_logit_multi(reduced, x, setting)
        assert abs(got - want) <= logit_tolerance(enum_prob(params, x, setting))


def joint_law(params, base):
    """Every state of the mediators and the outcome at ``base`` (treatment
    and covariates) with its probability, from linear predictors and
    expit only: no code shared with the reduction."""
    spec = params.spec
    names = [m.name for m in spec.mediators] + [spec.outcome.name]
    law = []
    for state in itertools.product((0.0, 1.0), repeat=len(names)):
        assign = {**base, **dict(zip(names, state))}
        prob = 1.0
        for n in names:
            p = _expit(params.linear_predictor(n, assign))
            prob *= p if assign[n] == 1.0 else 1.0 - p
        law.append((assign, prob))
    return law


def conditional(law, response, given):
    """P(response = 1 | given) under a ``joint_law``."""
    rows = [(a, p) for a, p in law
            if all(a[n] == v for n, v in given.items())]
    return (sum(p for a, p in rows if a[response] == 1.0)
            / sum(p for _, p in rows))


def _log_expit(t):
    """log expit(t), without cancellation for either sign of t."""
    return -(max(-t, 0.0) + math.log1p(math.exp(-abs(t))))


def _log_sum_exp(a, b):
    top = max(a, b)
    return top + math.log1p(math.exp(min(a, b) - top))


def outer_logit(params, setting):
    """Log odds of Y=1 at ``setting`` (X, W1 and covariates) with W2 of
    two mediators summed out: the Bayes sum over W2 in log space, which
    keeps every digit of both the numerator and the complement."""
    lp = params.linear_predictor
    sign = {1.0: 1.0, 0.0: -1.0}
    w1 = sign[setting["W1"]]
    log_y = []
    for y in (1.0, -1.0):
        terms = []
        for w2 in (0.0, 1.0):
            at = {**setting, "W2": w2}
            terms.append(_log_expit(sign[w2] * lp("W2", setting))
                         + _log_expit(w1 * lp("W1", at))
                         + _log_expit(y * lp("Y", at)))
        log_y.append(_log_sum_exp(*terms))
    return log_y[0] - log_y[1]


@given(st.data())
def test_outer_reduction_reproduces_the_outer_evaluator(data):
    params = data.draw(systems(DISCRETE, ks=(2, 2)))
    spec = params.spec
    reduced = marginalize(params, 2)
    assert [m.name for m in reduced.spec.mediators] == ["W1"]
    names = ["X", "W1"] + [c.name for c in spec.covariates]
    for setting in discrete_settings(spec, names):
        want = outer_logit(params, setting)
        got = reduced.linear_predictor("Y", setting)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    for setting in discrete_settings(spec, names[:1] + names[2:]):
        x = setting.pop("X")
        want = enum_logit(params, x, setting)
        got = marginal_logit_multi(reduced, x, setting)
        assert abs(got - want) <= logit_tolerance(enum_prob(params, x, setting))


@given(st.data())
def test_any_mediator_reduction_is_bayes_over_the_joint_law(data):
    params = data.draw(systems(DISCRETE, ks=(2, 5), sparse=True))
    spec = params.spec
    k = len(spec.mediators)
    j = data.draw(st.integers(1, k), label="j")
    reduced = marginalize(params, j)
    gone = spec.mediators[j - 1].name
    assert [m.name for m in reduced.spec.mediators] == [
        m.name for m in spec.mediators if m.name != gone]
    assert [m.mediator_index for m in reduced.spec.mediators] == list(
        range(1, k))
    exo = [spec.treatment.name] + [c.name for c in spec.covariates]
    for setting in discrete_settings(spec, exo):
        law = joint_law(params, setting)
        # every reduced equation is the original law of its response
        # given the reduced predictors
        for resp in reduced.spec.responses:
            meds = sorted(reduced.spec.predictors(resp) - set(exo))
            for given in discrete_settings(spec, meds):
                p = conditional(law, resp, given)
                got = reduced.linear_predictor(resp, {**setting, **given})
                assert abs(got - math.log(p / (1.0 - p))) \
                    <= 1e-9 + logit_tolerance(p)
        rest = dict(setting)
        x = rest.pop(spec.treatment.name)
        want = enum_logit(params, x, rest)
        got = marginal_logit_multi(reduced, x, rest)
        assert abs(got - want) <= 1e-9 + logit_tolerance(
            enum_prob(params, x, rest))
    # a plan cached for another mediator leaves this one's result alone
    other = data.draw(st.integers(1, k).filter(lambda i: i != j),
                      label="other j")
    marginalize(params, other)
    again = marginalize(params, j)
    assert again.spec == reduced.spec
    assert again.vector.tobytes() == reduced.vector.tobytes()


def _softplus(t):
    return np.logaddexp(0.0, t)


def _sigmoid(t):
    return np.exp(t - _softplus(t))


def chain_rule_reduction(params, j):
    """The Jacobian of summing W_j out, through the one-step formulas: W_j's
    log odds updated by Bayes through each mediator in between that W_j
    enters, g(y) = y (r1 - r0) + softplus(r0) - softplus(r1) + rw, then
    summed out of the response, eta = softplus(r1 - r0 + core) -
    softplus(core) + r0, differentiated by hand at each corner of the
    reduced predictors and solved through their design."""
    spec = params.spec
    theta = params.vector
    gone = spec.mediators[j - 1].name
    reduced = marginalize(params, j).spec

    def row(name, at):
        out = np.zeros(len(theta))
        out[spec.slices[name]] = [column_value(c, at)
                                  for c in spec.columns(name)]
        return out

    jac = np.zeros((len(reduced.flat_coords), len(theta)))
    for resp, s in reduced.slices.items():
        if gone not in spec.predictors(resp):
            old = spec.slices[resp]
            jac[s, old] = np.eye(old.stop - old.start)
            continue
        inside = spec.variable(resp).mediator_index or 0
        between = [m.name for m in spec.mediators
                   if inside < m.mediator_index < j
                   and gone in spec.predictors(m.name)]
        corners = discrete_settings(
            spec, sorted(reduced.predictors(resp), key=spec.ordering.index))
        grads, X = [], []
        for at in corners:
            at0, at1 = {**at, gone: 0.0}, {**at, gone: 1.0}
            drw = row(gone, at)
            rw = drw @ theta
            for m in between:
                y, a0, a1 = at[m], row(m, at0), row(m, at1)
                r0, r1 = a0 @ theta, a1 @ theta
                rw += y * (r1 - r0) + _softplus(r0) - _softplus(r1)
                drw = drw + (_sigmoid(r0) - y) * a0 + (y - _sigmoid(r1)) * a1
            b0, b1 = row(resp, at0), row(resp, at1)
            r0, r1 = b0 @ theta, b1 @ theta
            core = _softplus(r0) - _softplus(r1) + rw
            t = r1 - r0 + core
            step = _sigmoid(t) - _sigmoid(core)
            grads.append((1.0 - _sigmoid(t) + step * _sigmoid(r0)) * b0
                         + (_sigmoid(t) - step * _sigmoid(r1)) * b1
                         + step * drw)
            X.append([column_value(c, at) for c in reduced.columns(resp)])
        jac[s] = np.linalg.solve(np.array(X, dtype=float), np.array(grads))
    return jac


def central_difference(params, j, scale):
    """The Jacobian of ``marginalize(params, j)``'s coefficients by central
    differences, each step ``scale`` times max(1, |coefficient|), divided
    by the step as stored, so that a copied coefficient's is exact."""
    theta = params.vector
    cols = []
    for i in range(len(theta)):
        h = scale * max(1.0, abs(theta[i]))
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        cols.append((marginalize(ParameterSet.from_vector(params.spec, up),
                                 j).vector
                     - marginalize(ParameterSet.from_vector(params.spec, dn),
                                   j).vector) / (up[i] - dn[i]))
    return np.column_stack(cols)


@given(st.data())
def test_the_reduction_jacobian_is_exact(data):
    params = data.draw(systems(DISCRETE, ks=(2, 5), sparse=True))
    j = data.draw(st.integers(1, len(params.spec.mediators)), label="j")
    reduced, jac = _reduce(params, j)
    assert reduced.vector.tobytes() == marginalize(params, j).vector.tobytes()
    scale = np.max(np.abs(jac))
    assert np.max(np.abs(jac - chain_rule_reduction(params, j))) \
        <= 1e-12 * scale
    # a central difference resolves J only as far as its rounding lets it,
    # which its own movement under a halved step shows; the rounding
    # doubles as the step halves, so the movement can fall short of the
    # full step's error by up to half of it (at most 1.33 here)
    fd = central_difference(params, j, STEP_SCALE)
    own = np.max(np.abs(fd - central_difference(params, j, STEP_SCALE / 2)))
    assert np.max(np.abs(jac - fd)) <= 2.0 * own


def fresh_copy(params):
    """The same coefficients on a new, equal spec object."""
    spec = SystemSpec.from_json_dict(params.spec.to_json_dict())
    return ParameterSet.from_vector(spec, params.vector)


@given(st.data())
def test_each_spec_keeps_its_own_reduction_plan(data):
    a = data.draw(systems(DISCRETE, ks=(2, 4)))
    b = data.draw(systems(DISCRETE, ks=(2, 4)))
    first = {}
    for name, params in (("A", a), ("B", b), ("A", a), ("B", b)):
        reduced = marginalize_inner(params)
        got = (reduced.spec.to_json_dict(), reduced.vector.tolist())
        assert first.setdefault(name, got) == got
    # the plan built while A's was cached gives B what a fresh spec gives
    fresh = marginalize_inner(fresh_copy(b))
    assert first["B"] == (fresh.spec.to_json_dict(), fresh.vector.tolist())


def mask_numbers(params):
    """Each component mask of ``params``'s spec applied to ``params``; the
    masks must come back from the spec's cache on a second lookup."""
    spec = params.spec
    keys = [("TE", None), ("DE", None), ("IE", None), ("GIE", None),
            ("PSIE", PathSpec.parse([1])),
            ("PSIE", PathSpec.parse([1, len(spec.mediators)]))]
    masks = [component_mask(spec, name, path) for name, path in keys]
    assert all(component_mask(spec, name, path) is mask
               for (name, path), mask in zip(keys, masks))
    return [mask.apply(params).vector.tolist() for mask in masks]


@given(st.data())
def test_each_spec_keeps_its_own_masks(data):
    a = data.draw(systems(ks=(2, 4)))
    b = data.draw(systems(ks=(2, 4)))
    first = {}
    for name, params in (("A", a), ("B", b), ("A", a), ("B", b)):
        got = mask_numbers(params)
        assert first.setdefault(name, got) == got
    # an equal spec builds masks of its own, with the same numbers
    fresh = fresh_copy(b)
    assert mask_numbers(fresh) == first["B"]
    assert component_mask(fresh.spec, "DE") is not component_mask(b.spec,
                                                                   "DE")


# -- the stacked Newton solver ----------------------------------------------

# the design of test_irls_rejects_a_step_that_halving_cannot_rescue
UNRESCUABLE = (np.column_stack([
    np.ones(6), [-0.808, 0.079, -0.254, -0.626, -0.078, -1.923],
    [-0.982, 0.976, 1.363, 0.877, -0.465, 1.182]]),
    np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
    np.array([0.00106, 0.0152, 140.0, 88.0, 0.00617, 0.00138]))
FIT_KINDS = ("weighted", "unit", "singular", "ray", "table", "unrescuable")
SHARED_KINDS = ("weighted", "unit", "singular", "ray", "separated")


def fit_slice(kind, m, p, seed):
    """One weighted logistic fit (X, y, w) of shape (m, p), some of whose
    weights are zero: weighted rows (most stop on the log-likelihood
    rule), unit weights (most stop on the score test), a design whose
    last column repeats the intercept or is zero (a singular
    information), a ray (every row with x1 = 0 has y = 0), the (x, w) or
    (x, w, y) table of a binary study replication with counts of 0 to 5,
    or, at (6, 3), the step that halving cannot rescue."""
    if kind == "unrescuable" and (m, p) == (6, 3):
        return tuple(a.copy() for a in UNRESCUABLE)
    rng = np.random.default_rng([seed, m, p])
    X = np.column_stack([np.ones(m), rng.normal(
        0.0, 1.0 + 2.0 * rng.random(), (m, p - 1))])
    y = (rng.random(m) < 0.5).astype(float)
    w = rng.exponential(1.0 + 50.0 * rng.random(), m) * (rng.random(m) > 0.2)
    if kind == "unit":
        w = np.ones(m)
    elif kind == "singular":
        X[:, -1] = X[:, 0] if rng.random() < 0.5 else 0.0
    elif kind == "ray":
        X[:, 1] = rng.random(m) < 0.5
        y[X[:, 1] == 0.0] = 0.0
    elif kind == "table" and m == 2 ** p:
        cells = np.array(list(itertools.product((0.0, 1.0), repeat=p)))
        X[:, 1:], y = cells[:, :-1], cells[:, -1]
        w = rng.integers(0, 6, m).astype(float)
    return X, y, w


def shared_design(m, p, seed, binary):
    """A design for a stack to share: an intercept, normal columns and,
    with ``binary``, a last column of 0s and 1s."""
    rng = np.random.default_rng([seed, m, p])
    X = np.column_stack([np.ones(m), rng.normal(
        0.0, 1.0 + 2.0 * rng.random(), (m, p - 1))])
    if binary:
        X[:, -1] = rng.random(m) < 0.5
    return X


def on_design(X, kind, seed):
    """A response and weights for the design ``X`` that a stack shares:
    weighted (a fifth of the weights zero), unit weights, no weight on
    the rows where X's last column is nonzero (a singular information
    when that column holds 0s and 1s), a ray (every row whose last
    column is 0 has y = 0), or complete separation (y is 1 exactly where
    X's second column is above its median)."""
    m, p = X.shape
    rng = np.random.default_rng([seed, m, p])
    y = (rng.random(m) < 0.5).astype(float)
    w = rng.exponential(1.0 + 50.0 * rng.random(), m) * (rng.random(m) > 0.2)
    if kind == "unit":
        w = np.ones(m)
    elif kind == "singular":
        w[X[:, -1] != 0.0] = 0.0
    elif kind == "ray":
        y[X[:, -1] == 0.0] = 0.0
    elif kind == "separated":
        y = (X[:, 1] > np.median(X[:, 1])).astype(float)
    return X, y, w


def assert_stack_is_irls(fits, shared=False):
    """Every field of every slice of ``irls_stack`` is ``irls``'s on that
    slice, in value, dtype and bytes, and flags separation wherever it
    did not converge; with ``shared``, every fit has the first fit's
    design, passed once as an (m, p) array."""
    X, y, w = map(np.array, zip(*fits))
    got = irls_stack(X[0] if shared else X, y, w)
    assert (got[5] | got[4]).all()  # a fit that did not converge is flagged
    for i, fit in enumerate(fits):
        single = irls(*fit)
        assert single[5] or single[4]
        for a, b in zip(got, single):
            a, b = np.asarray(a[i]), np.asarray(b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return got


@given(st.data())
def test_a_stacked_irls_is_irls_on_each_slice(data):
    m, p = data.draw(st.one_of(
        st.sampled_from([(4, 2), (8, 3), (6, 3)]),
        st.tuples(st.integers(1, 9), st.integers(2, 4))))
    fits = data.draw(st.lists(st.builds(
        fit_slice, st.sampled_from(FIT_KINDS), st.just(m), st.just(p),
        st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=6))
    # one halving limit for both loops: none, a few, or the default
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "MAX_HALVINGS",
                      data.draw(st.sampled_from([0, 3, 10])))
        assert_stack_is_irls(fits)
        # one design shared by every slice, whole and in chunks of c slices
        X = shared_design(m, p, data.draw(st.integers(0, 2 ** 32 - 1)),
                          data.draw(st.booleans()))
        shared = [on_design(X, kind, seed) for kind, seed in data.draw(
            st.lists(st.tuples(st.sampled_from(SHARED_KINDS),
                               st.integers(0, 2 ** 32 - 1)),
                     min_size=1, max_size=9))]
        assert_stack_is_irls(shared, shared=True)
        c = data.draw(st.integers(1, len(shared)))
        for start in range(0, len(shared), c):
            assert_stack_is_irls(shared[start:start + c], shared=True)


def test_one_stack_ends_its_slices_every_way_irls_ends(monkeypatch):
    fits = [fit_slice(kind, 6, 3, seed) for kind, seed in (
        ("unit", 2), ("weighted", 1), ("unrescuable", 0), ("singular", 0),
        ("ray", 5))]
    beta, _, _, iterations, converged, separation = assert_stack_is_irls(fits)
    solves, lstsq = [], np.linalg.lstsq
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(
            a[0].shape) or lstsq(*a, **k))
        irls_stack(*map(np.array, zip(*fits)))
        stacked = len(solves)
        irls(*fits[3])
    # only the singular slice takes lstsq, at each of its 6 steps, as irls
    assert stacked == len(solves) - stacked == 6
    assert set(solves) == {(3, 3)}
    # a slice stopped by the score test ends elsewhere without it
    monkeypatch.setattr(fitting, "SCORE_TOL", 0.0)
    untested = irls_stack(*map(np.array, zip(*fits)))
    by_score = (untested[3] != iterations) | np.any(untested[0] != beta, 1)
    assert by_score.tolist() == [True, False, False, False, True]
    assert iterations.tolist()[:2] == [7, 5] and converged[:2].all()
    # the rejected step ends its slice at iteration 11, not converged
    assert iterations[2] == 11 and not converged[2] and separation[2]
    # a ray: converged, every coefficient within BIG_COEF, and flagged
    assert converged[4] and np.abs(beta[4]).max() < 50.0 and separation[4]
    assert not separation[[0, 1, 3]].any()


def test_a_shared_design_stack_ends_its_slices_every_way_irls_ends(
        monkeypatch):
    X = shared_design(30, 3, 1, True)
    fits = [on_design(X, kind, seed) for kind, seed in (
        ("unit", 0), ("weighted", 1), ("singular", 0), ("ray", 0),
        ("separated", 0))]
    assert (fits[1][2] == 0.0).any()
    beta, _, _, iterations, converged, separation = assert_stack_is_irls(
        fits, shared=True)
    solves, lstsq = [], np.linalg.lstsq
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(
            a[0].shape) or lstsq(*a, **k))
        irls_stack(X, *map(np.array, zip(*(f[1:] for f in fits))))
        stacked = len(solves)
        irls(*fits[2])
    # only the singular slice takes lstsq, at each of its steps, as irls
    assert stacked == len(solves) - stacked == 5
    assert iterations.tolist() == [4, 7, 6, 24, 29] and converged.all()
    # a ray, flagged with every coefficient within BIG_COEF, and a
    # complete separation, flagged beyond it
    assert separation.tolist() == [False, False, False, True, True]
    assert np.abs(beta[3]).max() < 50.0 < np.abs(beta[4]).max()


def test_a_study_stack_halves_exactly_where_irls_halves(monkeypatch):
    # the Y ~ X + W stack of a bench-shaped binary cell (seed 2, beta_x
    # 1.8, n 250, 100 replications), whose slices 19, 21 and 82 halve
    # their last step near the optimum, after 4, 5 and 4 full steps
    config = SimConfig("binary", 1.8, 250, 100, 2)
    x, w, y = _draw(config, _seed_states(config, np.arange(100)), None)
    counts = tabulate((np.arange(100)[:, None], x, w, y),
                      (100, 2, 2, 2)).reshape(100, 8).astype(float)
    fits = [(_Y_DESIGN, _CELLS[:, 2], row) for row in counts]
    assert_stack_is_irls(fits, shared=True)
    halve, calls = fitting._halve, []

    def recording(X, y, w, beta, step, ll):
        lower = float(fitting._loglik(X @ (beta + step), y, w)) < ll
        calls.append((w.tobytes(), beta.tobytes(), lower))
        return halve(X, y, w, beta, step, ll)

    monkeypatch.setattr(fitting, "_halve", recording)
    paths = []      # each slice's (iterate, full step lowers) by iteration
    for fit in fits:
        calls.clear()
        irls(*fit)
        paths.append([call[1:] for call in calls])
    lowered = [(i, it) for i, path in enumerate(paths)
               for it, (_, lower) in enumerate(path, 1) if lower]
    assert lowered == [(19, 5), (21, 6), (82, 5)]
    # the stack halves those steps, and only those: each call's counts
    # name its slice (no two tables are equal), its iterate the iteration
    slice_of = {row.tobytes(): i for i, row in enumerate(counts)}
    assert len(slice_of) == len(counts)
    calls.clear()
    irls_stack(_Y_DESIGN, np.broadcast_to(_CELLS[:, 2], counts.shape), counts)
    halved = []
    for weights, beta, _ in calls:
        i = slice_of[weights]
        halved.append((i, [b for b, _ in paths[i]].index(beta) + 1))
    assert sorted(halved) == lowered


def test_separation_takes_the_qr_only_for_a_converged_fit_out_far(
        monkeypatch):
    X, y, w = fit_slice("ray", 6, 3, 5)
    beta, *_ = irls(X, y, w)
    eta = X @ beta
    stack = (X, np.array([y, y]), np.array([w, w]), np.array([beta, beta]),
             np.array([eta, eta]))
    assert np.abs(beta).max() < fitting.BIG_COEF
    assert (np.abs(eta) > fitting.BIG_LOGIT).any()
    qr, dependent = [], fitting._dependent
    monkeypatch.setattr(fitting, "_dependent",
                        lambda A: qr.append(A.shape) or dependent(A))
    # a fit that did not converge is flagged, its extreme logits unread
    assert fitting._separation(*stack, np.array([False, False])).all()
    assert qr == []
    # a converged ray is flagged by the QR of the rows it leaves
    assert fitting._separation(*stack, np.array([True, False])).all()
    assert len(qr) == 1
    # a coefficient beyond BIG_COEF is flagged, with no logit out far
    flat = np.zeros((1, 6))
    big = np.array([[0.0, 0.0, 2.0 * fitting.BIG_COEF]])
    assert fitting._separation(X * [1.0, 1.0, 0.0], y[None], w[None], big,
                               flat, np.array([True]))[0]
    assert not fitting._separation(X, y[None], w[None], big / 4.0, flat,
                                   np.array([True]))[0]
    assert len(qr) == 1
