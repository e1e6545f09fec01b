"""Delta-method standard errors, effect tables, and fit transformations."""

import csv
import io
import json
import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import norm

from logitpath import (FittedSystem, InferenceError, SystemSpec,
                       VariableSpec, decompose)
from logitpath.effects import (EffectError, EffectRequest, component,
                               component_mask)
from logitpath.inference import delta_se, effect_table, transform_fitted
from logitpath.multi import (_reduce, g_recursive, marginal_logit_multi,
                             marginalize, marginalize_inner)
from conftest import expected_data_fit, make_system, random_params


def test_linear_functional_se_is_the_coefficient_se(example_fit):
    req = EffectRequest.contrast(2, 1, {"C": 0})
    est = delta_se(example_fit, lambda p: component(p, req, "DE"))
    assert est.value == pytest.approx(
        example_fit.params.get("Y", "X{2,1}"), abs=1e-12)
    assert est.se == pytest.approx(
        example_fit.se("Y", "X{2,1}"), abs=1e-8)


def assert_p_is_the_normal_tail(value, se, p):
    # pinned to its standard-library formula, 2 P(Z > r) = erfc(r / sqrt
    # 2); scipy.stats' normal is the oracle, within 5e-13 relative (4.3e-13
    # the largest gap measured)
    assert p == math.erfc(abs(value) / se / math.sqrt(2.0))
    want = 2.0 * norm.sf(abs(value) / se)
    assert abs(p - want) <= 5e-13 * want


def test_interval_and_p_value_formulas(example_fit):
    # the quantile is the standard library's, from the lower tail, and
    # scipy.stats' normal is its oracle within 1e-15 relative: 0.5 +
    # level / 2 rounds to 1 at the level just below 1, the lower tail
    # keeps it
    req = EffectRequest.contrast(3, 1, {"C": 1})
    for level in (1e-300, 0.8, 0.9, 0.95, 0.99, math.nextafter(1.0, 0.0)):
        est = delta_se(example_fit, lambda p: component(p, req, "TE"),
                       level=level)
        z = -NormalDist().inv_cdf(0.5 - level / 2.0)
        assert est.ci == (est.value - z * est.se, est.value + z * est.se)
        want = float(norm.isf((1.0 - level) / 2.0))
        assert abs(z - want) <= 1e-15 * want
        assert_p_is_the_normal_tail(est.value, est.se, est.p_value)


@pytest.mark.parametrize("level", [-0.5, 0.0, 1.0, 1.5, float("nan"), "0.9",
                                   None])
def test_interval_level_outside_zero_one_is_refused(example_fit, level):
    # no interval has such a level: its normal quantile is negative,
    # infinite or nan, or there is no number to take it of
    req = EffectRequest.contrast(2, 1, {"C": 0})
    named = f"interval level {level!r} is not between 0 and 1"
    with pytest.raises(InferenceError, match=named):
        delta_se(example_fit, lambda p: component(p, req, "TE"), level=level)
    with pytest.raises(InferenceError, match=named):
        effect_table(example_fit, [req], level=level)


@pytest.fixture
def table_work(monkeypatch):
    """Counts the reductions and delta-method rows a table computes."""
    from logitpath import inference
    calls = {"transform_fitted": 0, "delta_se": 0}
    for name in calls:
        def counted(*args, _fn=getattr(inference, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(inference, name, counted)
    return calls


def test_a_bad_request_is_refused_before_the_first_row(example_fit,
                                                       table_work):
    good = EffectRequest.contrast(2, 1, {"C": 0})
    bad = EffectRequest.contrast(9, 1, {"C": 0})
    with pytest.raises(EffectError, match=r"treatment 'X' cannot take 9; "
                                          r"it takes a level in \[1, 2, 3\]"):
        effect_table(example_fit, [good, bad])
    assert table_work == {"transform_fitted": 0, "delta_se": 0}


@pytest.mark.parametrize("treatment, x, covariates, slope, message", [
    ("binary", 5, {"C": 1}, False,
     "treatment 'X' cannot take 5; it takes 0 or 1"),
    ("categorical", 9, {"C": 1}, False,
     r"treatment 'X' cannot take 9; it takes a level in \[1, 2, 3\]"),
    ("binary", 1, {"C": 7}, False,
     "covariate 'C' cannot take 7; it takes 0 or 1"),
    ("binary", 0.5, {"C": 1}, True,
     "a derivative needs a continuous treatment; 'X' is binary"),
    ("continuous", 1.0, {"C": 10 ** 400}, False,
     r"covariate 'C' cannot take 100000000000000000\.\.\.0000000000000000000;"
     r" it takes a finite number"),
], ids=["binary-treatment-5", "categorical-treatment-9", "covariate-7",
        "binary-derivative", "continuous-covariate-10**400"])
def test_every_entry_point_refuses_a_fault_with_one_message(
        request, table_work, treatment, x, covariates, slope, message):
    # a direct call, a component, a decomposition and a table all say the
    # same thing, and the table says it before any work
    if treatment == "categorical":
        fitted, x0 = request.getfixturevalue("example_fit"), 1
    elif treatment == "continuous":     # and a continuous covariate C
        spec = SystemSpec.build(
            [VariableSpec("Y", "outcome", "binary"),
             VariableSpec("W1", "mediator", "binary", mediator_index=1),
             VariableSpec("X", "treatment", "continuous"),
             VariableSpec("C", "covariate", "continuous")],
            {"Y": ["1", "X", "W1", "C"], "W1": ["1", "X", "C"]})
        fitted = FittedSystem(spec, random_params(
            spec, np.random.default_rng(114)), np.eye(7), {}, 100.0)
        x0 = 0.0
    else:
        fitted, x0 = expected_data_fit(np.random.default_rng(113), spec=(
            make_system(1, covariate=True))), 0
    params = fitted.params
    req = (EffectRequest.derivative(x, covariates) if slope
           else EffectRequest.contrast(x, x0, covariates))
    calls = [lambda: marginal_logit_multi(params, x, covariates, slope=slope),
             lambda: component(params, req, "TE"),
             lambda: decompose(params, req),
             lambda: effect_table(fitted, [EffectRequest.contrast(
                 x0 + 1, x0, {"C": 0}), req])]
    if not slope:   # no derivative is asked of a mediator's log odds
        calls.append(lambda: g_recursive(params, 1, 1, x, None, covariates))
    for call in calls:
        with pytest.raises(EffectError, match=f"^{message}$"):
            call()
    assert table_work == {"transform_fitted": 0, "delta_se": 0}


def test_a_bad_level_is_refused_before_the_reduction(table_work):
    fitted = expected_data_fit(np.random.default_rng(112), k=2)
    with pytest.raises(InferenceError, match="interval level 1.5"):
        effect_table(fitted, [EffectRequest.contrast(1, 0)],
                     transform=marginalize_inner, level=1.5)
    assert table_work == {"transform_fitted": 0, "delta_se": 0}


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.96, 5.0, 10.0, 20.0, 30.0,
                                   35.0])
def test_far_tail_p_value_equals_scipy_stats(example_fit, ratio):
    # a constant shift moves the value, not the gradient: |value| / se
    # reaches 35, where p is about 1e-268 and still not 0
    coef = example_fit.params.get("Y", "X{2,1}")
    shift = ratio * example_fit.se("Y", "X{2,1}") - coef
    est = delta_se(example_fit, lambda p: p.get("Y", "X{2,1}") + shift)
    assert abs(est.value) / est.se == pytest.approx(ratio, rel=1e-6,
                                                    abs=1e-9)
    assert_p_is_the_normal_tail(est.value, est.se, est.p_value)
    assert ratio < 35.0 or 0.0 < est.p_value < 1e-260


def test_degenerate_se_p_value_rule(example_fit):
    flat = delta_se(example_fit, lambda p: 0.0)
    assert flat.se == 0.0 and flat.p_value == 1.0
    shifted = delta_se(example_fit, lambda p: 1.5)
    assert shifted.se == 0.0 and shifted.p_value == 0.0


def test_nonfinite_effects_are_reported(example_fit):
    with pytest.raises(InferenceError, match="not finite at the estimate"):
        delta_se(example_fit, lambda p: float("nan"))

    calls = {"n": 0}

    def blows_up_off_estimate(params):
        calls["n"] += 1
        return 1.0 if calls["n"] == 1 else float("inf")

    with pytest.raises(InferenceError, match="perturbing Y:1"):
        delta_se(example_fit, blows_up_off_estimate)


def test_degenerate_variance_is_an_error(example_fit):
    req = EffectRequest.contrast(2, 1, {"C": 0})

    def fn(p):
        return component(p, req, "TE")

    sigma = example_fit.covariance.copy()
    y = example_fit.spec.slices["Y"].start
    sigma[y, y] = float("nan")
    nan_fit = replace(example_fit, covariance=sigma)
    with pytest.raises(InferenceError, match="TE 2 vs 1: variance nan"):
        delta_se(nan_fit, fn, label="TE 2 vs 1")
    negated = replace(example_fit, covariance=-example_fit.covariance)
    with pytest.raises(InferenceError, match="TE 2 vs 1: negative variance"):
        delta_se(negated, fn, label="TE 2 vs 1")


def test_unknown_component_rejected(example_fit):
    req = EffectRequest.contrast(2, 1, {"C": 0})
    with pytest.raises(EffectError, match="unknown effect component"):
        component(example_fit.params, req, "XYZ")
    with pytest.raises(EffectError, match="needs a path"):
        component(example_fit.params, req, "PSIE")


def test_effect_table_evaluates_the_module_marginal_logit(example_fit,
                                                          monkeypatch):
    # every row goes through inference.marginal_logit_multi, looked up
    # when it is called: patching the module attribute reaches each row
    import logitpath.inference as inference
    calls, per_row = [0], []
    logit, row_se = inference.marginal_logit_multi, inference.delta_se

    def counted_logit(*args):
        calls[0] += 1
        return logit(*args)

    def counted_row(*args, **kwargs):
        before = calls[0]
        est = row_se(*args, **kwargs)
        per_row.append(calls[0] - before)
        return est

    monkeypatch.setattr(inference, "marginal_logit_multi", counted_logit)
    monkeypatch.setattr(inference, "delta_se", counted_row)
    reqs = [EffectRequest.contrast(2, 1, {"C": 0}),
            EffectRequest.contrast(3, 1, {"C": 1}, scale="probability")]
    table = effect_table(example_fit, reqs, paths=[[1]])
    assert len(per_row) == len(table.rows) == 10
    assert min(per_row) >= 1


def test_a_table_refuses_a_system_without_mediators():
    # nothing is mediated, so there is nothing to split: the table refuses
    # the system, as decompose does
    from logitpath import SystemSpec, VariableSpec
    spec = SystemSpec.build([VariableSpec("Y", "outcome", "binary"),
                             VariableSpec("X", "treatment", "binary")],
                            {"Y": ["1", "X"]})
    fitted = expected_data_fit(np.random.default_rng(116), spec=spec)
    with pytest.raises(EffectError, match="system declares no mediators"):
        effect_table(fitted, [EffectRequest.contrast(1, 0)])


def test_table_rows_and_ordering(example_fit):
    reqs = [EffectRequest.contrast(2, 1, {"C": 0}),
            EffectRequest.contrast(3, 1, {"C": 0})]
    table = effect_table(example_fit, reqs, paths=[[1]])
    assert [r.effect for r in table.rows] == [
        "DE", "IE", "RES", "TE", "PSIE[1]"] * 2
    assert table.rows[0].contrast == "2 vs 1"
    assert table.rows[5].contrast == "3 vs 1"
    assert table.rows[0].covariates == "C=0"

    d = decompose(example_fit.params, reqs[0])
    by_effect = {r.effect: r.estimate.value for r in table.rows[:4]}
    assert by_effect["TE"] == pytest.approx(d.total, abs=1e-12)
    assert by_effect["DE"] == pytest.approx(d.direct, abs=1e-12)
    assert by_effect["IE"] == pytest.approx(d.indirect, abs=1e-12)
    assert by_effect["RES"] == pytest.approx(d.residual, abs=1e-12)


def test_probability_scale_row_names(example_fit):
    req = EffectRequest.contrast(2, 1, {"C": 1}, scale="probability")
    table = effect_table(example_fit, [req])
    assert [r.effect for r in table.rows] == ["DPE", "IPE", "RPE", "TPE"]


def test_table_serializations(example_fit):
    req = EffectRequest.contrast(2, 1, {"C": 0})
    table = effect_table(example_fit, [req])
    records = table.to_records()
    assert len(records) == 4
    assert set(records[0]) == {"effect", "contrast", "covariates",
                              "estimate", "se", "ci_low", "ci_high",
                              "p_value"}
    assert json.loads(table.to_json()) == records

    parsed = list(csv.DictReader(io.StringIO(table.to_csv())))
    assert [r["effect"] for r in parsed] == ["DE", "IE", "RES", "TE"]
    assert float(parsed[3]["estimate"]) == pytest.approx(
        records[3]["estimate"], rel=1e-12)

    text = table.to_text()
    lines = text.splitlines()
    assert len(lines) == 6
    assert lines[0].split()[:2] == ["effect", "contrast"]
    assert "TE" in text and "2 vs 1" in text
    assert lines[0].split()[-2:] == ["ci95", "p"]


@pytest.mark.parametrize("level,header", [(0.80, "ci80"), (0.975, "ci97.5")])
def test_text_table_labels_its_own_level(example_fit, level, header):
    table = effect_table(example_fit, [EffectRequest.contrast(2, 1, {"C": 0})],
                         level=level)
    assert table.to_text().splitlines()[0].split()[-2:] == [header, "p"]


def test_inner_transform_pushforward_matches_composition():
    rng = np.random.default_rng(110)
    fitted = expected_data_fit(rng, k=2)
    reduced, cross = transform_fitted(fitted, marginalize_inner)
    # original equation blocks are independent and the reduced mediator
    # equations are verbatim copies, so no cross-equation covariance
    # appears and the stored blocks carry the whole sandwich
    assert cross < 1e-12
    assert len(reduced.spec.mediators) == 1
    req = EffectRequest.contrast(1, 0)
    for comp in ("TE", "DE", "GIE", "RES"):
        via_original = delta_se(
            fitted, lambda p: component(marginalize_inner(p), req, comp))
        via_reduced = delta_se(reduced, lambda p: component(p, req, comp))
        assert via_reduced.value == pytest.approx(via_original.value,
                                                  abs=1e-9)
        assert via_reduced.se == pytest.approx(via_original.se, rel=1e-4)


def test_outer_transform_pushforward_matches_composition():
    rng = np.random.default_rng(111)
    fitted = expected_data_fit(rng, k=2)
    reduced, cross = transform_fitted(fitted, lambda p: marginalize(p, 2))
    # both reduced equations draw on the original W1/W2 blocks, yet the
    # reported cross covariance is numerical dust: one carries the margin
    # of the inner mediator, the other its reverse conditional, and those
    # parameter groups are information-orthogonal under the factorized
    # likelihood.  The block-diagonal artifact therefore loses nothing
    # and reduced-system standard errors stay consistent.
    assert cross < 1e-9
    assert [m.name for m in reduced.spec.mediators] == ["W1"]
    req = EffectRequest.contrast(1, 0)
    for comp in ("TE", "DE", "IE", "RES"):
        via_original = delta_se(
            fitted,
            lambda p: component(marginalize(p, 2), req, comp))
        via_reduced = delta_se(reduced, lambda p: component(p, req, comp))
        assert via_reduced.value == pytest.approx(via_original.value,
                                                  abs=1e-9)
        assert via_reduced.se == pytest.approx(via_original.se, rel=1e-4)


def test_covariance_matrix_equals_scipy_block_diag(example_fit):
    for fitted in (example_fit,
                   expected_data_fit(np.random.default_rng(114), k=3)):
        blocks = [fitted.cov_blocks[r] for r in fitted.spec.responses]
        assert np.array_equal(fitted.covariance_matrix(),
                              scipy.linalg.block_diag(*blocks))


def test_cross_covariance_matches_the_block_diag_formula():
    fitted = expected_data_fit(np.random.default_rng(115), k=3)

    def middle(params):
        return marginalize(params, 2)

    reduced, cross = transform_fitted(fitted, middle)
    _, jac = _reduce(fitted.params, 2)
    sigma = jac @ fitted.covariance_matrix() @ jac.T
    blocks = [sigma[s, s] for s in reduced.spec.slices.values()]
    want = float(np.max(np.abs(sigma - scipy.linalg.block_diag(*blocks))))
    assert cross == want
    assert cross > 0.0


def test_reduced_covariance_takes_no_central_difference(monkeypatch):
    # the reduction's Jacobian is exact, so the difference step does not
    # enter the reduced covariance
    import logitpath.inference as inference
    fitted = expected_data_fit(np.random.default_rng(115), k=3)
    for j in (1, 2, 3):
        base = transform_fitted(fitted, lambda p: marginalize(p, j))[0]
        monkeypatch.setattr(inference, "STEP_SCALE",
                            inference.STEP_SCALE / 2.0)
        halved = transform_fitted(fitted, lambda p: marginalize(p, j))[0]
        monkeypatch.undo()
        assert halved.covariance.tobytes() == base.covariance.tobytes()
        assert halved.params.vector.tobytes() == base.params.vector.tobytes()


def test_a_transform_that_sums_no_mediator_out_is_refused(example_fit):
    fitted = expected_data_fit(np.random.default_rng(115), k=3)
    mask = component_mask(fitted.spec, "DE")
    for transform in (lambda p: p, mask.apply,
                      lambda p: marginalize(marginalize(p, 3), 1)):
        with pytest.raises(InferenceError, match="sum one mediator out"):
            transform_fitted(fitted, transform)
    with pytest.raises(InferenceError, match="sum one mediator out"):
        effect_table(example_fit, [EffectRequest.contrast(2, 1, {"C": 0})],
                     transform=lambda p: p)


def test_structural_zeros_have_zero_se():
    # mediator absent from the outcome equation: the masked functionals
    # are constant in every coefficient, so value, se and the whole
    # interval collapse
    from logitpath import SystemSpec, VariableSpec
    variables = [VariableSpec("Y", "outcome", "binary"),
                 VariableSpec("W1", "mediator", "binary", mediator_index=1),
                 VariableSpec("X", "treatment", "binary")]
    spec = SystemSpec.build(variables, {"Y": ["1", "X"], "W1": ["1", "X"]})
    fitted = expected_data_fit(np.random.default_rng(113), spec=spec,
                               total=2000.0)
    table = effect_table(fitted, [EffectRequest.contrast(1, 0)])
    rows = {r.effect: r.estimate for r in table.rows}
    for name in ("IE", "RES"):
        assert rows[name].value == 0.0
        assert rows[name].se == 0.0
        assert rows[name].p_value == 1.0
    assert rows["TE"].se > 0.0


def test_se_is_stable_under_step_halving(example_fit, monkeypatch):
    import logitpath.inference as inference
    req = EffectRequest.contrast(2, 1, {"C": 0})
    def res(p):
        return component(p, req, "RES")

    base = delta_se(example_fit, res)
    monkeypatch.setattr(inference, "STEP_SCALE", 5e-7)
    halved = delta_se(example_fit, res)
    assert halved.se == pytest.approx(base.se, rel=1e-4)
    assert halved.value == base.value


def test_effect_table_with_transform():
    rng = np.random.default_rng(112)
    fitted = expected_data_fit(rng, k=2)
    req = EffectRequest.contrast(1, 0)
    table = effect_table(fitted, [req], transform=marginalize_inner)
    assert [r.effect for r in table.rows] == ["DE", "IE", "RES", "TE"]
    want = delta_se(fitted, lambda p: component(marginalize_inner(p), req,
                                                "TE"))
    got = table.rows[3].estimate
    assert got.value == pytest.approx(want.value, abs=1e-12)
    # the reference differentiates through the reduction at every point;
    # the table differentiates the reduced system against J Sigma J'
    # (they differ by 7e-11 relative here)
    assert got.se == pytest.approx(want.se, rel=1e-9)


def test_transform_table_is_the_table_of_the_reduced_system():
    # summing out the middle mediator correlates the reduced equations
    # (cross > 0): the reduced system keeps that part of J Sigma J', so
    # reducing first and decomposing the reduced fit is the same path as
    # transform=, and both match the gradient through the reduction
    fitted = expected_data_fit(np.random.default_rng(115), k=3)

    def middle(params):
        return marginalize(params, 2)

    reduced, cross = transform_fitted(fitted, middle)
    assert cross > 0.0
    reqs = [EffectRequest.contrast(1, 0),
            EffectRequest.contrast(1, 0, scale="probability")]
    via_transform = effect_table(fitted, reqs, paths=[[1]], transform=middle)
    assert via_transform == effect_table(reduced, reqs, paths=[[1]])
    comps = ("DE", "IE", "RES", "TE")
    for req, rows in zip(reqs, (via_transform.rows[:5],
                                via_transform.rows[5:])):
        for comp, row in zip(comps, rows):
            want = delta_se(fitted,
                            lambda p: component(middle(p), req, comp))
            assert row.estimate.value == pytest.approx(want.value, abs=1e-12)
            assert row.estimate.se == pytest.approx(want.se, rel=1e-6)
