"""Single-mediator effects against closed forms and enumeration."""

import math
import re

import numpy as np
import pytest
from scipy.special import expit

from logitpath import (DataError, Dataset, EffectError, ParameterSet,
                       SystemSpec, VariableSpec, average_probability_effects,
                       decompose, deltas)
from logitpath.effects import (Decomposition, EffectRequest, component,
                               component_mask)
from logitpath.multi import _reduce, g_recursive, marginal_logit_multi
from conftest import (assert_close, enum_logit, enum_prob, make_system,
                      random_covariates, random_params, random_system,
                      random_treatment_pair)


def plain_system(rng, interaction=True):
    extra = ("X:W1",) if interaction else ()
    spec = make_system(1, treatment="continuous", extra_terms=extra)
    return spec, random_params(spec, rng)


def coefs(params):
    g = params.get
    bxw = 0.0
    if any(str(t) in ("W1:X", "X:W1") for t in params.spec.terms("Y")):
        bxw = g("Y", "W1:X")
    return (g("Y", "1"), g("Y", "X"), g("Y", "W1"), bxw,
            g("W1", "1"), g("W1", "X"))


# -- closed-form oracles ---------------------------------------------------

def test_g_y_matches_printed_formula():
    rng = np.random.default_rng(70)
    for _ in range(200):
        spec, params = plain_system(rng)
        b0, bx, bw, bxw, g0, gx = coefs(params)
        x = float(rng.normal(0.0, 1.5))
        for y in (0, 1):
            r0 = b0 + bx * x
            r1 = r0 + bw + bxw * x
            expected = (y * (bw + bxw * x)
                        + math.log1p(math.exp(r0)) - math.log1p(math.exp(r1))
                        + g0 + gx * x)
            assert_close(g_recursive(params, 1, y, x), expected, 1e-10,
                         "g(y)")


def test_marginal_logit_matches_enumeration():
    rng = np.random.default_rng(71)
    for _ in range(300):
        spec, params = random_system(rng, k=1)
        x, _ = random_treatment_pair(spec, rng)
        cov = random_covariates(spec, rng)
        assert_close(marginal_logit_multi(params, x, cov),
                     enum_logit(params, x, cov), 1e-10, "marginal logit")


def test_total_effect_is_log_cross_product_ratio():
    rng = np.random.default_rng(72)
    for _ in range(100):
        spec, params = random_system(rng, k=1, treatment="binary")
        cov = random_covariates(spec, rng)
        d = decompose(params, EffectRequest.contrast(1, 0, cov))
        p1 = enum_prob(params, 1, cov)
        p0 = enum_prob(params, 0, cov)
        cpr = (p1 / (1 - p1)) / (p0 / (1 - p0))
        assert_close(d.total, math.log(cpr), 1e-10, "TE vs log cpr")


def test_direct_effect_is_the_treatment_coefficient():
    rng = np.random.default_rng(73)
    for _ in range(100):
        spec, params = plain_system(rng)
        bx = params.get("Y", "X")
        d = decompose(params, EffectRequest.derivative(
            float(rng.normal())))
        assert_close(d.direct, bx, 1e-10, "DE derivative")
        a, b = random_treatment_pair(spec, rng)
        d = decompose(params, EffectRequest.contrast(a, b))
        assert_close(d.direct, bx * (a - b), 1e-10, "DE contrast")


def test_indirect_effect_closed_form():
    # derivative of the treatment-masked logit equals gamma_x times the
    # masked difference of mediator probabilities given the outcome
    rng = np.random.default_rng(74)
    for _ in range(100):
        spec, params = plain_system(rng)
        gx = params.get("W1", "X")
        x = float(rng.normal())
        masked = component_mask(spec, "IE").apply(params)
        delta_star = (expit(g_recursive(masked, 1, 1, x))
                      - expit(g_recursive(masked, 1, 0, x)))
        d = decompose(params, EffectRequest.derivative(x))
        assert_close(d.indirect, gx * delta_star, 1e-9, "IE closed form")


def test_derivative_agrees_with_finite_differences():
    rng = np.random.default_rng(75)
    for _ in range(50):
        spec, params = plain_system(rng)
        x = float(rng.normal())
        h = 1e-6
        fd = (marginal_logit_multi(params, x + h)
              - marginal_logit_multi(params, x - h)) / (2 * h)
        d = decompose(params, EffectRequest.derivative(x))
        assert_close(d.total, fd, 1e-6, "TE derivative vs fd")


def test_probability_scale_is_expit_of_masked_logits():
    rng = np.random.default_rng(76)
    for _ in range(100):
        spec, params = random_system(rng, k=1, treatment="binary")
        cov = random_covariates(spec, rng)
        req = EffectRequest.contrast(1, 0, cov, scale="probability")
        d = decompose(params, req)
        p1, p0 = enum_prob(params, 1, cov), enum_prob(params, 0, cov)
        assert_close(d.total, p1 - p0, 1e-10, "TPE")
        dm = component_mask(spec, "DE").apply(params)
        q1, q0 = enum_prob(dm, 1, cov), enum_prob(dm, 0, cov)
        assert_close(d.direct, q1 - q0, 1e-10, "DPE")
        im = component_mask(spec, "IE").apply(params)
        r1, r0 = enum_prob(im, 1, cov), enum_prob(im, 0, cov)
        assert_close(d.indirect, r1 - r0, 1e-10, "IPE")
        assert_close(d.residual, d.total - d.direct - d.indirect, 1e-12,
                     "RPE by difference")


def test_probability_derivative_density_factor():
    rng = np.random.default_rng(77)
    for _ in range(100):
        spec, params = plain_system(rng)
        x = float(rng.normal())
        dl = decompose(params, EffectRequest.derivative(x))
        dp = decompose(params, EffectRequest.derivative(x, scale="probability"))
        eta = marginal_logit_multi(params, x)
        p = expit(eta)
        assert_close(dp.total, p * (1 - p) * dl.total, 1e-10, "TPE density")
        star = marginal_logit_multi(component_mask(spec, "IE").apply(params),
                                    x)
        ps = expit(star)
        assert_close(dp.indirect, ps * (1 - ps) * dl.indirect, 1e-10,
                     "IPE density")


# -- special cases ---------------------------------------------------------

def bayes_deltas(params, x, covariates):
    """(delta_y, delta_w) from the joint law of (W, Y) at X=x."""
    at = {"X": x, **covariates}
    pw = expit(params.linear_predictor("W1", at))
    py = [expit(params.linear_predictor("Y", {**at, "W1": w})) for w in (0, 1)]
    joint = {(w, y): (pw if w else 1.0 - pw) * (py[w] if y else 1.0 - py[w])
             for w in (0, 1) for y in (0, 1)}
    p_w1 = [joint[1, y] / (joint[0, y] + joint[1, y]) for y in (0, 1)]
    return py[1] - py[0], p_w1[1] - p_w1[0]


@pytest.mark.parametrize("treatment, xs", [
    ("binary", (0, 1)), ("categorical", (1, 2, 3)),
    ("continuous", (-1.3, 0.0, 0.7))])
def test_deltas_match_bayes_over_the_joint_law(treatment, xs):
    rng = np.random.default_rng(87)
    spec = make_system(1, treatment, covariate=True,
                       extra_terms=("X:W1", "C:W1"))
    for _ in range(20):
        params = random_params(spec, rng)
        starred = params.replace({
            ("Y", spec.column_label(c)): 0.0 for c in spec.columns("Y")
            if "X" in c.term.factors})
        for x in xs:
            for c in (0, 1):
                dy, dw, dws = deltas(params, x, {"C": c})
                want_dy, want_dw = bayes_deltas(params, x, {"C": c})
                assert_close(dy, want_dy, 1e-14, "delta_y")
                assert_close(dw, want_dw, 1e-14, "delta_w")
                assert_close(dws, bayes_deltas(starred, x, {"C": c})[1],
                             1e-14, "delta_w_star")


def test_delta_w_star_is_delta_w_without_a_treatment_term_in_y():
    rng = np.random.default_rng(88)
    spec = SystemSpec.build(make_system(1, covariate=True).variables,
                            {"Y": ["1", "C", "W1", "C:W1"],
                             "W1": ["1", "X", "C"]})
    for _ in range(20):
        params = random_params(spec, rng)
        for x in (0, 1):
            _, dw, dws = deltas(params, x, {"C": 1})
            assert dws == dw


def zeroed(params, *labels):
    return params.replace({("Y", lab) if not isinstance(lab, tuple) else lab: 0.0
                           for lab in labels})


def test_case_treatment_absent_from_outcome():
    # X -> W -> Y only: the whole effect is indirect
    rng = np.random.default_rng(78)
    for _ in range(60):
        spec, params = plain_system(rng)
        params = zeroed(params, "X", "W1:X")
        for req in (EffectRequest.derivative(float(rng.normal())),
                    EffectRequest.contrast(1.0, -0.5)):
            d = decompose(params, req)
            assert_close(d.direct, 0.0, 1e-12, "DE")
            assert_close(d.residual, 0.0, 1e-10, "RES")
            assert_close(d.total, d.indirect, 1e-10, "TE=IE")


def test_case_mediator_absent_from_outcome():
    # collapsible: W drops out of the outcome equation entirely
    rng = np.random.default_rng(79)
    for _ in range(60):
        spec, params = plain_system(rng)
        params = zeroed(params, "W1", "W1:X")
        for req in (EffectRequest.derivative(float(rng.normal())),
                    EffectRequest.contrast(2.0, 0.0)):
            d = decompose(params, req)
            assert_close(d.indirect, 0.0, 1e-12, "IE")
            assert_close(d.residual, 0.0, 1e-10, "RES")
            assert_close(d.total, d.direct, 1e-10, "TE=DE")


def test_case_independent_mediator_shrinks_the_effect():
    # no interaction and no X->W arrow: |TE| <= |beta_x|, IE = 0
    rng = np.random.default_rng(80)
    for _ in range(200):
        spec, params = plain_system(rng)
        params = zeroed(params, "W1:X", ("W1", "X"))
        bx = params.get("Y", "X")
        d = decompose(params, EffectRequest.derivative(
            float(rng.normal(0.0, 2.0))))
        assert_close(d.indirect, 0.0, 1e-12, "IE")
        assert abs(d.total) <= abs(bx) + 1e-12
        assert_close(d.total, d.direct + d.residual, 1e-10, "TE=DE+RES")


def test_case_no_treatment_mediator_arrow_keeps_the_sign():
    # gamma_x = 0 with both conditional contrasts sharing a sign: the
    # marginal contrast cannot reverse it
    rng = np.random.default_rng(81)
    hits = 0
    while hits < 200:
        spec, params = plain_system(rng)
        params = params.replace({("W1", "X"): 0.0})
        bx = params.get("Y", "X")
        bxw = params.get("Y", "W1:X")
        lo, hi = bx, bx + bxw  # conditional effects at W=0 and W=1
        if lo * hi <= 0:
            continue
        hits += 1
        d = decompose(params, EffectRequest.contrast(1.0, 0.0))
        sign = 1.0 if lo > 0 else -1.0
        assert d.total * sign >= -1e-12
        assert_close(d.indirect, 0.0, 1e-12, "IE")


def test_concordance_of_masked_delta_with_mediator_coefficient():
    rng = np.random.default_rng(82)
    for _ in range(300):
        spec, params = plain_system(rng)
        bw = params.get("Y", "W1")
        masked = component_mask(spec, "IE").apply(params)
        x = float(rng.normal(0.0, 2.0))
        delta_star = (expit(g_recursive(masked, 1, 1, x))
                      - expit(g_recursive(masked, 1, 0, x)))
        assert delta_star * bw >= 0.0
        if bw != 0.0:
            assert delta_star != 0.0


# -- request plumbing ------------------------------------------------------

def with_idle_mediator(params, rng):
    """``params`` plus an outer mediator W2 that the treatment drives and
    nothing depends on: two mediators, the same outcome law."""
    spec = params.spec
    wide = SystemSpec.build(
        spec.variables + (VariableSpec("W2", "mediator", "binary",
                                       mediator_index=2),),
        {**spec.equations, "W2": ["1", spec.treatment.name]})
    vec = ParameterSet.from_nested(wide, params.nested()).vector.copy()
    vec[wide.slices["W2"]] = rng.normal(size=len(wide.columns("W2")))
    return ParameterSet(wide, vec)


def test_single_and_multi_paths_agree_at_one_mediator():
    # one mediator is the k = 1 case of the recursion: adding an idle
    # second mediator changes no component
    rng = np.random.default_rng(83)
    for _ in range(100):
        spec, params = random_system(rng, k=1)
        wide = with_idle_mediator(params, rng)
        a, b = random_treatment_pair(spec, rng)
        cov = random_covariates(spec, rng)
        for scale in ("logodds", "probability"):
            req = EffectRequest.contrast(a, b, cov, scale=scale)
            one = decompose(params, req)
            many = decompose(wide, req)
            assert_close(one.total, many.total, 1e-12, "TE")
            assert_close(one.direct, many.direct, 1e-12, "DE")
            assert_close(one.indirect, many.indirect, 1e-12, "IE")
            assert_close(one.residual, many.residual, 1e-12, "RES")


def test_request_validation():
    with pytest.raises(EffectError):
        EffectRequest.contrast(1, 1)
    with pytest.raises(EffectError):
        EffectRequest("contrast", x1=None, x0=0)
    with pytest.raises(EffectError):
        EffectRequest.derivative(0.5, scale="logs")
    # a request holds any treatment value; the system checks it at use
    assert EffectRequest.contrast("b", "a").x1 == "b"
    assert EffectRequest.derivative(np.array([0.5, -1.0])).at.shape == (2,)
    spec = make_system(1, treatment="binary")
    params = ParameterSet.zeros(spec)
    with pytest.raises(EffectError):
        decompose(params, EffectRequest.derivative(0.5))
    spec = make_system(1, treatment="categorical")
    params = ParameterSet.zeros(spec)
    with pytest.raises(EffectError):
        decompose(params, EffectRequest.contrast(1, 7))


def test_binary_treatment_contrasts_only_zero_and_one():
    # the same values the CLI accepts for a binary treatment
    spec = make_system(1, treatment="binary")
    params = random_params(spec, np.random.default_rng(89))
    for x1, x0, bad in ((5, 0, 5), (1, 0.5, 0.5), (-1, 1, -1)):
        with pytest.raises(EffectError, match=f"treatment 'X' cannot take "
                                              f"{bad}; it takes 0 or 1"):
            decompose(params, EffectRequest.contrast(x1, x0))
    d = decompose(params, EffectRequest.contrast(1.0, 0.0))
    assert d.total == decompose(params, EffectRequest.contrast(1, 0)).total


@pytest.mark.parametrize("make", [
    lambda: EffectRequest.contrast(math.inf, 0.0),
    lambda: EffectRequest.contrast(1.0, math.nan),
    lambda: EffectRequest.contrast(10 ** 400, 0),
    lambda: EffectRequest.derivative(-math.inf),
    lambda: EffectRequest.derivative(np.array([0.5, math.nan])),
], ids=["x1-inf", "x0-nan", "x1-huge", "at-inf", "at-array-nan"])
def test_treatment_values_must_be_finite(make):
    # refused at first use, in the one form of a value a variable cannot
    # take, on a continuous and (for a contrast) on a binary system
    request = make()
    kinds = ("continuous", "binary") if request.mode == "contrast" else (
        "continuous",)
    for kind in kinds:
        params = ParameterSet.zeros(make_system(1, treatment=kind))
        with pytest.raises(EffectError, match=r"^treatment 'X' cannot take "
                                              r".+; it takes "):
            decompose(params, request)


def test_array_contrast_endpoints_must_differ_everywhere():
    with pytest.raises(EffectError, match="endpoints must differ"):
        EffectRequest.contrast(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(EffectError, match="endpoints must have one shape"):
        EffectRequest.contrast(np.array([1.0, 0.0]), np.zeros(3))


def test_array_settings_must_broadcast_to_one_shape():
    # a (3,) treatment against a (2,) covariate or outer mediator ended in
    # numpy's "shape mismatch" from the setting's design
    params = random_params(make_system(2, treatment="continuous",
                                       covariate=True),
                           np.random.default_rng(98))
    x, two = np.array([0.5, -1.0, 2.0]), np.array([0.0, 1.0])
    for call, other in [
            (lambda: marginal_logit_multi(params, x, {"C": two}), "C"),
            (lambda: g_recursive(params, 1, 1, x, {"W2": two}, {"C": 1}),
             "W2"),
            (lambda: decompose(params, EffectRequest.derivative(
                x, {"C": two})), "C")]:
        with pytest.raises(EffectError, match=(
                rf"^the setting's arrays do not broadcast to one shape: "
                rf"'X' \(3,\), '{other}' \(2,\)$")):
            call()


def _covariate_system(kind):
    levels = ("a", "b", "c") if kind == "categorical" else ()
    spec = SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("W1", "mediator", "binary", mediator_index=1),
         VariableSpec("X", "treatment", "binary"),
         VariableSpec("C", "covariate", kind, levels=levels)],
        {"Y": ["1", "X", "W1", "C"], "W1": ["1", "X", "C"]})
    return random_params(spec, np.random.default_rng(91))


@pytest.mark.parametrize("kind, value", [
    ("binary", 7), ("binary", 0.5), ("binary", "1"),
    ("binary", np.array([0.0, 1.0, 2.0])),
    ("categorical", "zzz"), ("categorical", "B"), ("categorical", 1),
    ("categorical", np.array(["a", "d"], dtype=object)),
    ("continuous", math.inf), ("continuous", math.nan), ("continuous", "2"),
    ("continuous", np.array([0.5, math.nan])), ("continuous", 10 ** 400),
    ("continuous", np.array([0.5, 10 ** 400], dtype=object)),
    ("binary", True), ("binary", np.array([1.0, True], dtype=object)),
    ("continuous", False), ("continuous", np.array([True, False])),
], ids=["binary-7", "binary-half", "binary-string", "binary-array",
        "level-zzz", "level-case", "level-number", "level-array",
        "continuous-inf", "continuous-nan", "continuous-string",
        "continuous-array-nan", "continuous-10**400",
        "continuous-array-10**400", "binary-true", "binary-array-true",
        "continuous-false", "continuous-boolean-array"])
def test_a_covariate_value_must_be_one_it_takes(kind, value):
    # before, a binary C = 7 scaled the C coefficient sevenfold and an
    # unknown level silently read as the reference level
    params = _covariate_system(kind)
    with pytest.raises(EffectError, match="covariate 'C' cannot take"):
        decompose(params, EffectRequest.contrast(1, 0, {"C": value}))


@pytest.mark.parametrize("kind, values", [
    ("binary", (0, 1, 0.0, 1.0, np.array([0.0, 1.0, 1.0]))),
    ("categorical", ("a", "c", np.array(["b", "a"], dtype=object))),
    ("continuous", (-2.5, 0, np.float64(3.0), np.array([0.5, -1.0]))),
])
def test_every_value_a_covariate_takes_is_accepted(kind, values):
    params = _covariate_system(kind)
    for value in values:
        decompose(params, EffectRequest.contrast(1, 0, {"C": value}))


def test_deltas_need_exactly_one_mediator():
    params = random_params(make_system(2), np.random.default_rng(90))
    with pytest.raises(EffectError, match="exactly one mediator"):
        deltas(params, 1)


def test_only_covariates_can_be_fixed():
    # a treatment setting would override both contrast arms, and a
    # mediator setting would be ignored by the marginal logit
    spec = make_system(2, covariate=True)
    params = random_params(spec, np.random.default_rng(83))
    for name, role in (("W1", "mediator"), ("X", "treatment"),
                       ("Y", "outcome"), ("Q", "undeclared")):
        request = EffectRequest.contrast(1, 0, {"C": 0, name: 1})
        with pytest.raises(EffectError, match=f"'{name}' .*{role}"):
            decompose(params, request)


def test_fully_masked_treatment_has_zero_derivative():
    spec = make_system(1, treatment="continuous",
                       mediator_terms={"W1": ["1"]})
    rng = np.random.default_rng(84)
    params = random_params(spec, rng)
    gie = component(params, EffectRequest.derivative(0.3), "IE")
    assert gie == 0.0


def test_mediated_share_flags_residual():
    rng = np.random.default_rng(85)
    spec, params = plain_system(rng)
    for req in (EffectRequest.contrast(1.0, 0.0),
                EffectRequest.derivative(np.array([0.1, 0.5]))):
        d = decompose(params, req)
        share, residual_nonzero = d.mediated_share()
        assert np.array_equal(residual_nonzero, np.abs(d.residual) > 1e-12)
        assert share == pytest.approx(d.indirect / d.total)


def test_mediated_share_is_nan_where_the_total_is_zero():
    d = Decomposition(EffectRequest.derivative(np.array([0.1, 0.5])),
                      np.array([0.0, 2.0]), np.array([0.0, 1.5]),
                      np.array([0.0, 0.5]))
    share, residual_nonzero = d.mediated_share()
    assert np.isnan(share[0]) and share[1] == 0.25
    assert residual_nonzero.tolist() == [False, False]


def test_average_probability_effects_match_pointwise():
    rng = np.random.default_rng(86)
    spec, params = plain_system(rng)
    xs = rng.normal(0.0, 1.5, 40)
    data = Dataset.from_records({
        "Y": rng.integers(0, 2, 40), "X": xs,
        "W1": rng.integers(0, 2, 40)})
    atpe, adpe, aipe = average_probability_effects(params, data)
    per = [decompose(params, EffectRequest.derivative(
        float(x), scale="probability")) for x in xs]
    assert_close(atpe, np.mean([d.total for d in per]), 1e-10, "ATPE")
    assert_close(adpe, np.mean([d.direct for d in per]), 1e-10, "ADPE")
    assert_close(aipe, np.mean([d.indirect for d in per]), 1e-10, "AIPE")


def test_one_average_probability_effects_call_compiles_one_program(
        monkeypatch):
    # TE, DE and IE differ only in their coefficients, so the rows'
    # setting is compiled once for all three
    from logitpath import effects
    compiled, design = [0], effects._setting_design

    def counted(*args):
        compiled[0] += 1
        return design(*args)

    monkeypatch.setattr(effects, "_setting_design", counted)
    rng = np.random.default_rng(87)
    spec, params = plain_system(rng)
    data = Dataset.from_records({
        "Y": rng.integers(0, 2, 40), "X": rng.normal(0.0, 1.5, 40),
        "W1": rng.integers(0, 2, 40)})
    average_probability_effects(params, data)
    assert compiled[0] == 1


# -- corners whose logits span beyond exp's range --------------------------

def study_system(beta_w, treatment="binary"):
    """The study's truth (b0 -2, bx 0.9, g0 -2, gx 2) at a W -> Y
    coefficient ``beta_w``."""
    spec = make_system(1, treatment=treatment)
    return ParameterSet.from_vector(spec, [-2.0, 0.9, beta_w, -2.0, 2.0])


@pytest.mark.parametrize("beta_w", [710.0, 800.0, 5000.0])
def test_a_total_effect_stays_finite_when_the_corners_span_far(beta_w):
    # before: NaN, since expm1 of the corners' spread overflowed, although
    # P(Y=1|x) = P(W=0|x) expit(b0 + bx x) + P(W=1|x) for such a beta_w
    def logit_y(x):
        pw = expit(-2.0 + 2.0 * x)
        r = -2.0 + 0.9 * x
        return (math.log((1.0 - pw) * expit(r) + pw * expit(r + beta_w))
                - math.log((1.0 - pw) * expit(-r) + pw * expit(-r - beta_w)))
    want = logit_y(1.0) - logit_y(0.0)
    assert want == pytest.approx(1.7516470946214546, abs=1e-15)
    request = EffectRequest.contrast(1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        d = decompose(study_system(beta_w), request)
    assert_close(d.total, want, 1e-12, "TE")
    assert_close(d.direct, 0.9, 1e-12, "DE")
    # IE is flat in beta_w here too: P(Y=1|x, W=1) is 1 in floating point
    assert_close(d.indirect, decompose(study_system(700.0), request).indirect,
                 1e-12, "IE")


@pytest.mark.parametrize("beta_w", [710.0, 800.0, 5000.0])
def test_slopes_and_gradients_stay_finite_when_the_corners_span_far(beta_w):
    # the slope in x and the gradient in theta take the same fallback;
    # beyond beta_w ~ 40, P(Y=1|x, W=1) is 1 in floating point, so each
    # agrees with its value at beta_w = 700, inside exp's range
    request = EffectRequest.derivative(np.array([-1.0, 0.0, 2.5]))
    spec = make_system(2)
    theta = np.random.default_rng(88).normal(size=len(spec.flat_coords))
    got, near = [], []
    for bw, out in ((beta_w, got), (700.0, near)):
        theta[2] = bw   # Y's W1 coefficient
        with np.errstate(over="ignore", invalid="ignore"):
            d = decompose(study_system(bw, "continuous"), request)
            out.append((d.total, d.direct, d.indirect))
            out.extend(_reduce(ParameterSet.from_vector(spec, theta), 1))
    assert np.all(np.isfinite(got[0]))
    assert np.allclose(got[0], near[0], rtol=0, atol=1e-12)
    assert np.allclose(got[1].vector, near[1].vector, rtol=0, atol=1e-12)
    assert np.allclose(got[2], near[2], rtol=0, atol=1e-12)


def test_one_point_spanning_far_leaves_each_other_point_at_its_own_value():
    # at x = 800, Y's corners differ by b_w + b_xw x, beyond exp's range,
    # so the call takes the log-sum-exps at every point: each entry stays
    # within rounding of its own single-point call, finite
    spec = make_system(1, treatment="continuous", extra_terms=("X:W1",))
    xs = np.array([-1.0, 0.5, 800.0, 2.5])
    for seed in range(12):
        rng = np.random.default_rng([141, seed])
        theta = rng.normal(size=len(spec.flat_coords))
        theta[spec.coord("Y", "W1:X")] = rng.uniform(1.0, 2.0)
        params = ParameterSet(spec, theta)
        spread = np.abs(theta[spec.coord("Y", "W1")]
                        + theta[spec.coord("Y", "W1:X")] * xs)
        assert (spread > 709.0).tolist() == [False, False, True, False]
        for scale in ("logodds", "probability"):
            with np.errstate(over="ignore", invalid="ignore"):
                d = decompose(params, EffectRequest.derivative(
                    xs, scale=scale))
                for i, x in enumerate(xs.tolist()):
                    one = decompose(params, EffectRequest.derivative(
                        x, scale=scale))
                    for got, want in ((d.total, one.total),
                                      (d.direct, one.direct),
                                      (d.indirect, one.indirect)):
                        assert math.isfinite(got[i])
                        assert abs(got[i] - want) <= 2e-15 * max(1.0,
                                                                 abs(want))


# -- refusals that name their value ----------------------------------------

def _rows(x, y, count=1.0):
    return Dataset.from_rows([{"X": x, "W1": 0, "Y": y, "count": count},
                              {"X": x, "W1": 1, "Y": 1 - y, "count": count}])


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: EffectRequest("bogus"), EffectError,
                 "unknown mode 'bogus'", id="mode"),
    pytest.param(lambda: EffectRequest("derivative"), EffectError,
                 "derivative mode needs an evaluation point", id="no-point"),
    pytest.param(lambda: average_probability_effects(
        study_system(1.0), _rows(1, 0)), EffectError,
        "effects need a continuous treatment; 'X' is binary",
        id="ape-binary-treatment"),
    pytest.param(lambda: average_probability_effects(
        study_system(1.0, "continuous"), Dataset.from_rows([])),
        DataError, "empty data", id="ape-no-rows"),
    pytest.param(lambda: average_probability_effects(
        study_system(1.0, "continuous"), _rows(0.5, 1, count=0.0)),
        DataError, "empty data", id="ape-no-counts"),
    pytest.param(lambda: decompose(plain_system(
        np.random.default_rng(3))[1], EffectRequest.derivative(
            np.array([[0.5], 1.0], dtype=object))),
        EffectError, "treatment 'X' cannot take [0.5] (array entry [0]); "
        "it takes a finite number",
        id="unhashable-entry"),
])
def test_an_effect_refusal_names_the_value(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
