"""Recursive marginalization, path effects, and system reductions."""

import itertools
import math
import re

import numpy as np
import pytest

from logitpath import (EffectError, SystemSpec, VariableSpec, ZeroMask,
                       decompose)
from logitpath.effects import PROGRAMS_KEPT, EffectRequest, component_mask
from logitpath.multi import (PathSpec, g_recursive, marginal_logit_multi,
                             marginalize, marginalize_inner, psie,
                             residual_structurally_zero)
from conftest import (_expit, assert_close, enum_logit, enum_prob,
                      make_system, random_covariates, random_params,
                      random_system, random_treatment_pair)


def discrete_system(rng, k):
    treatment = ("binary", "categorical")[rng.integers(0, 2)]
    covariate = bool(rng.integers(0, 2))
    extra = ["X:W1"] if rng.integers(0, 2) else []
    spec = make_system(k, treatment, covariate, extra_terms=extra)
    return spec, random_params(spec, rng)


def design_points(spec):
    """Every (treatment value, covariate setting) the system admits."""
    kind = spec.treatment.kind
    xs = spec.treatment.levels if kind == "categorical" else (0, 1)
    cov_axes = [(0, 1) for _ in spec.covariates]
    names = [v.name for v in spec.covariates]
    for x in xs:
        for combo in itertools.product(*cov_axes):
            yield x, dict(zip(names, combo))


# -- the marginal logit ----------------------------------------------------

def test_marginal_logit_multi_matches_enumeration():
    rng = np.random.default_rng(90)
    for _ in range(200):
        spec, params = random_system(rng)
        x, _ = random_treatment_pair(spec, rng)
        cov = random_covariates(spec, rng)
        assert_close(marginal_logit_multi(params, x, cov),
                     enum_logit(params, x, cov), 1e-10, "marginal logit")


def test_one_mediator_recursion_collapses_to_the_direct_formula():
    # one mediator is the k = 1 case of the recursion, which must agree
    # with Bayes over the enumerated joint law
    rng = np.random.default_rng(91)
    for _ in range(50):
        spec, params = random_system(rng, k=1)
        x, _ = random_treatment_pair(spec, rng)
        cov = random_covariates(spec, rng)
        want = enum_logit(params, x, cov)
        assert_close(marginal_logit_multi(params, x, cov), want, 1e-10,
                     "k=1 recursion")
        base = {"X": x, **cov}
        pw = _expit(params.linear_predictor("W1", base))
        for y in (0, 1):
            joint = []
            for w in (0, 1):
                py = _expit(params.linear_predictor("Y", {**base, "W1": w}))
                joint.append((pw if w else 1.0 - pw)
                             * (py if y else 1.0 - py))
            assert_close(g_recursive(params, 1, y, x, covariates=cov),
                         math.log(joint[1] / joint[0]), 1e-10, "g(y)")


def test_components_are_enumerations_of_masked_systems():
    rng = np.random.default_rng(92)
    for _ in range(60):
        k = int(rng.integers(2, 4))
        spec, params = random_system(rng, k=k)
        a, b = random_treatment_pair(spec, rng)
        cov = random_covariates(spec, rng)
        dm = component_mask(spec, "DE").apply(params)
        im = component_mask(spec, "IE").apply(params)

        d = decompose(params, EffectRequest.contrast(a, b, cov))
        assert d.indirect_name == "GIE"
        te = enum_logit(params, a, cov) - enum_logit(params, b, cov)
        de = enum_logit(dm, a, cov) - enum_logit(dm, b, cov)
        gie = enum_logit(im, a, cov) - enum_logit(im, b, cov)
        assert_close(d.total, te, 1e-10, "TE")
        assert_close(d.direct, de, 1e-10, "DE")
        assert_close(d.indirect, gie, 1e-10, "GIE")
        assert_close(d.residual, te - de - gie, 1e-9, "RES")

        p = decompose(params, EffectRequest.contrast(
            a, b, cov, scale="probability"))
        assert_close(p.total, enum_prob(params, a, cov)
                     - enum_prob(params, b, cov), 1e-10, "TPE")
        assert_close(p.direct, enum_prob(dm, a, cov)
                     - enum_prob(dm, b, cov), 1e-10, "DPE")
        assert_close(p.indirect, enum_prob(im, a, cov)
                     - enum_prob(im, b, cov), 1e-10, "GIPE")
        assert_close(p.total, p.direct + p.indirect + p.residual,
                     1e-12, "additivity")


def test_derivative_components_match_finite_differences():
    rng = np.random.default_rng(93)
    for _ in range(30):
        spec = make_system(2, treatment="continuous")
        params = random_params(spec, rng)
        x = float(rng.normal())
        h = 1e-6
        d = decompose(params, EffectRequest.derivative(x))
        for val, masked in ((d.total, params),
                            (d.direct,
                             component_mask(spec, "DE").apply(params)),
                            (d.indirect,
                             component_mask(spec, "IE").apply(params))):
            fd = (enum_logit(masked, x + h) - enum_logit(masked, x - h)) / (2 * h)
            assert_close(val, fd, 5e-6, "derivative component")


def test_conditional_mediator_log_odds_match_bayes():
    rng = np.random.default_rng(94)
    for _ in range(40):
        spec = make_system(2, treatment="continuous", covariate=True)
        params = random_params(spec, rng)
        x = float(rng.normal())
        cov = random_covariates(spec, rng)
        base = {"X": x, **cov}

        def p_y(y, w1, w2):
            p = _expit(params.linear_predictor(
                "Y", {**base, "W1": w1, "W2": w2}))
            return p if y == 1 else 1.0 - p

        def p_w1(w1, w2):
            p = _expit(params.linear_predictor("W1", {**base, "W2": w2}))
            return p if w1 == 1 else 1.0 - p

        def p_w2(w2):
            p = _expit(params.linear_predictor("W2", base))
            return p if w2 == 1 else 1.0 - p

        for y in (0, 1):
            joint = {w2: sum(p_y(y, w1, w2) * p_w1(w1, w2) * p_w2(w2)
                             for w1 in (0, 1)) for w2 in (0, 1)}
            assert_close(g_recursive(params, 2, y, x, covariates=cov),
                         math.log(joint[1] / joint[0]), 1e-10, "outer g")
            for w2 in (0, 1):
                ratio = (p_y(y, 1, w2) * p_w1(1, w2)) / (p_y(y, 0, w2)
                                                         * p_w1(0, w2))
                assert_close(
                    g_recursive(params, 1, y, x, {"W2": w2}, cov),
                    math.log(ratio), 1e-10, "inner g")

    with pytest.raises(EffectError):
        g_recursive(params, 3, 1, 0.0)
    with pytest.raises(EffectError):
        g_recursive(params, 1, 2, 0.0)


def two_mediator_params(treatment="binary", covariate=True):
    spec = make_system(2, treatment, covariate, extra_terms=("X:W1",))
    return random_params(spec, np.random.default_rng(95))


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda p: g_recursive(p, 1, 1, 1.0, {"W2": 7}, {"C": 1}),
                 "'W2'.*7", id="outer-mediator-7"),
    pytest.param(lambda p: g_recursive(p, 1, 1, 1.0, {"W2": 0.5}, {"C": 1}),
                 "'W2'.*0.5", id="outer-mediator-half"),
    pytest.param(lambda p: g_recursive(p, 2, 1, 1.0, {"W1": 1}, {"C": 1}),
                 "'W1'", id="inner-mediator"),
    pytest.param(lambda p: g_recursive(p, 1, 1, 1.0, {"W1": 1, "W2": 0},
                                       {"C": 1}),
                 "'W1'", id="summed-mediator"),
    pytest.param(lambda p: g_recursive(p, 2, 1, 1.0, {"Y": 0}, {"C": 1}),
                 "'Y'", id="outcome-held"),
    pytest.param(lambda p: g_recursive(p, 2, 1, 1.0, {"Z": 0}, {"C": 1}),
                 "'Z'", id="undeclared-held"),
    pytest.param(lambda p: g_recursive(p, 2, 1, 1.0, {"C": 1}, {"C": 1}),
                 "'C'", id="covariate-held"),
    pytest.param(lambda p: g_recursive(p, 2, 1, 1.0, None, {"C": 7}),
                 "'C'.*7", id="g-covariate-7"),
    pytest.param(lambda p: g_recursive(p, 2, 1, 5.0, None, {"C": 1}),
                 "'X'.*5.0", id="g-treatment-5"),
    pytest.param(lambda p: marginal_logit_multi(p, 1.0, {"C": 7}),
                 "'C'.*7", id="covariate-7"),
    pytest.param(lambda p: marginal_logit_multi(p, 1.0, {"C": True}),
                 "'C' cannot take True", id="covariate-true"),
    pytest.param(lambda p: g_recursive(p, 1, 1, 1.0, {"W2": False}, {"C": 1}),
                 "'W2' cannot take False", id="outer-mediator-false"),
    pytest.param(lambda p: marginal_logit_multi(p, 5.0, {"C": 1}),
                 "'X'.*5.0", id="treatment-5"),
    pytest.param(lambda p: marginal_logit_multi(p, 1.0, {"C": 1, "W1": 1}),
                 "'W1'", id="mediator-as-covariate"),
    pytest.param(lambda p: marginal_logit_multi(p, 1.0, {"C": 1, "Y": 1}),
                 "'Y'", id="outcome-as-covariate"),
    pytest.param(lambda p: marginal_logit_multi(p, 1.0, {"C": 1, "X": 0}),
                 "'X'", id="treatment-as-covariate"),
    pytest.param(lambda p: marginal_logit_multi(p, np.array([1.0, 2.0]),
                                                {"C": 1}),
                 r"'X'.*2\.", id="treatment-array"),
])
def test_direct_calls_refuse_values_a_variable_cannot_take(call, named):
    params = two_mediator_params()
    marginal_logit_multi(params, 1.0, {"C": 1})     # a setting already kept
    with pytest.raises(EffectError, match=named):
        call(params)


@pytest.mark.parametrize("treatment, x, named", [
    ("continuous", math.inf, "'X'.*inf"),
    ("continuous", math.nan, "'X'.*nan"),
    ("continuous", "a", "'X'.*'a'"),
    ("continuous", 10 ** 400, "'X' cannot take 1000.*a finite number"),
    ("categorical", 4, "'X'.*4"),
    ("categorical", 1.5, "'X'.*1.5"),
    ("binary", True, "'X' cannot take True; it takes 0 or 1"),
    ("binary", np.bool_(True), "'X' cannot take .*True.*; it takes 0 or 1"),
    ("categorical", True, "'X' cannot take True"),
    ("continuous", True, "'X' cannot take True; it takes a finite number"),
], ids=["continuous-inf", "continuous-nan", "continuous-string",
        "continuous-10**400", "categorical-4", "categorical-1.5",
        "binary-true", "binary-numpy-true", "categorical-true",
        "continuous-true"])
def test_direct_calls_refuse_a_treatment_value_after_a_good_one(
        treatment, x, named):
    params = two_mediator_params(treatment)
    marginal_logit_multi(params, 1, {"C": 1})
    g_recursive(params, 1, 1, 1, {"W2": 1}, {"C": 1})
    with pytest.raises(EffectError, match=named):
        marginal_logit_multi(params, x, {"C": 1})
    with pytest.raises(EffectError, match=named):
        g_recursive(params, 1, 1, x, {"W2": 1}, {"C": 1})


def test_direct_calls_accept_every_value_a_variable_takes():
    for treatment, xs in (("binary", (0, 1, 0.0, 1.0)),
                          ("categorical", (1, 2, 3)),
                          ("continuous", (-2.5, 0, 3))):
        params = two_mediator_params(treatment, "categorical")
        for x in xs:
            for c in ("a", "b", "c"):
                assert_close(marginal_logit_multi(params, x, {"C": c}),
                             enum_logit(params, x, {"C": c}), 1e-10,
                             "marginal logit")
                for w2 in (0, 1, 0.0, 1.0):
                    assert math.isfinite(
                        g_recursive(params, 1, 0, x, {"W2": w2}, {"C": c}))


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda p: g_recursive(p, 1, True, 1, {"W2": 0}, {"C": 1}),
                 "True", id="y-boolean"),
    pytest.param(lambda p: g_recursive(p, 1, 0.5, 1, {"W2": 0}, {"C": 1}),
                 "0.5", id="y-fraction"),
    pytest.param(lambda p: g_recursive(p, True, 1, 1, {"W2": 0}, {"C": 1}),
                 "True", id="j-boolean"),
    pytest.param(lambda p: g_recursive(p, 1.5, 1, 1, {"W2": 0}, {"C": 1}),
                 "1.5", id="j-fraction"),
    pytest.param(lambda p: PathSpec.parse([1.5]), "1.5", id="path-fraction"),
    pytest.param(lambda p: PathSpec.parse([2, True]), "True",
                 id="path-boolean"),
    pytest.param(lambda p: psie(p, [1.5], EffectRequest.contrast(
        1, 0, {"C": 1})), "1.5", id="psie-fraction"),
    pytest.param(lambda p: marginalize(p, True), "True",
                 id="marginalize-boolean"),
    pytest.param(lambda p: marginalize(p, 2.5), "2.5",
                 id="marginalize-fraction"),
])
def test_an_index_must_be_an_integer(call, named):
    # a boolean y indexed the corner array as a new axis, True summed W1
    # out, and a path through mediator 1.5 was the path through 1
    with pytest.raises(EffectError, match=f"must be an integer, not {named}$"):
        call(two_mediator_params())


def test_an_index_may_be_any_integer_or_an_integer_string():
    params = two_mediator_params()
    want = g_recursive(params, 1, 1, 1, {"W2": 0}, {"C": 1})
    for j, y in ((np.int64(1), np.int8(1)), (1, 1.0)):
        assert g_recursive(params, j, y, 1, {"W2": 0}, {"C": 1}) == want
    assert PathSpec.parse(["2", np.int64(1)]).indices == (1, 2)
    assert np.array_equal(marginalize(params, np.int64(2)).vector,
                          marginalize(params, 2).vector)


def test_distinct_settings_leave_the_kept_programs_at_their_bound():
    # a continuous treatment value is not part of a program's key
    params = two_mediator_params("continuous")
    for x in np.linspace(-3.0, 3.0, 10_000):
        marginal_logit_multi(params, float(x), {"C": 1})
    kept = params.spec.programs[2][-1]
    assert len(kept) == 1
    # a continuous covariate is, so its settings stop at the bound
    variables = [VariableSpec("Y", "outcome", "binary"),
                 VariableSpec("W1", "mediator", "binary", mediator_index=1),
                 VariableSpec("X", "treatment", "binary"),
                 VariableSpec("Z", "covariate", "continuous")]
    spec = SystemSpec.build(variables, {"Y": ["1", "X", "W1", "Z"],
                                        "W1": ["1", "X", "Z", "X:Z"]})
    params = random_params(spec, np.random.default_rng(96))
    zs = np.linspace(-3.0, 3.0, 3 * PROGRAMS_KEPT).tolist()
    for z in zs:
        marginal_logit_multi(params, 1, {"Z": z})
        assert len(spec.programs[1][-1]) <= PROGRAMS_KEPT
    assert len(spec.programs[1][-1]) == PROGRAMS_KEPT
    for z in zs[:3] + zs[-3:]:   # evicted and kept settings alike
        assert_close(marginal_logit_multi(params, 1, {"Z": z}),
                     enum_logit(params, 1, {"Z": z}), 1e-10, "after eviction")


# -- explicit reductions ---------------------------------------------------

def test_inner_marginalization_preserves_the_outcome_law():
    rng = np.random.default_rng(95)
    for _ in range(25):
        k = int(rng.integers(2, 4))
        spec, params = discrete_system(rng, k)
        reduced = marginalize_inner(params)
        assert len(reduced.spec.mediators) == k - 1
        for x, cov in design_points(spec):
            assert_close(enum_logit(reduced, x, cov),
                         enum_logit(params, x, cov), 1e-9,
                         "reduced marginal logit")


def test_total_effect_survives_inner_marginalization():
    rng = np.random.default_rng(96)
    for _ in range(30):
        k = int(rng.integers(2, 4))
        spec, params = discrete_system(rng, k)
        a, b = random_treatment_pair(spec, rng)
        cov = random_covariates(spec, rng)
        req = EffectRequest.contrast(a, b, cov)
        full = decompose(params, req)
        red = decompose(marginalize_inner(params), req)
        assert_close(red.total, full.total, 1e-10, "TE")


def test_global_indirect_effect_survives_inner_marginalization():
    # holds when the removed mediator has no treatment arrow: its law is
    # then free of x, so masking x out of the reduced outcome equation is
    # the marginalization of the masked one.  With the arrow present the
    # reduced equation's x terms absorb the W1 channel and the two global
    # indirect effects genuinely differ.
    rng = np.random.default_rng(96)
    for _ in range(30):
        k = int(rng.integers(2, 4))
        covariate = bool(rng.integers(0, 2))
        inner = ["1"] + (["C"] if covariate else []) \
            + [f"W{i}" for i in range(2, k + 1)]
        spec = make_system(k, ("binary", "categorical")[rng.integers(0, 2)],
                           covariate, mediator_terms={"W1": inner})
        params = random_params(spec, rng)
        a, b = random_treatment_pair(spec, rng)
        req = EffectRequest.contrast(a, b, random_covariates(spec, rng))
        full = decompose(params, req)
        red = decompose(marginalize_inner(params), req)
        assert_close(red.total, full.total, 1e-10, "TE")
        assert_close(red.indirect, full.indirect, 1e-10, "GIE")


def test_treatment_arrow_into_removed_mediator_breaks_gie_invariance():
    rng = np.random.default_rng(107)
    spec = make_system(2)
    params = random_params(spec, rng)
    req = EffectRequest.contrast(1, 0)
    full = decompose(params, req)
    red = decompose(marginalize_inner(params), req)
    assert_close(red.total, full.total, 1e-10, "TE still matches")
    assert abs(red.indirect - full.indirect) > 1e-3


def test_explicit_marginalization_guards():
    rng = np.random.default_rng(97)
    spec = make_system(2, treatment="continuous")
    params = random_params(spec, rng)
    with pytest.raises(EffectError, match="discrete"):
        marginalize_inner(params)
    spec = make_system(1)
    params = random_params(spec, rng)
    with pytest.raises(EffectError, match="two mediators"):
        marginalize_inner(params)
    with pytest.raises(EffectError, match="two mediators"):
        marginalize(params, 1)
    # the outer reduction of three mediators sums W3 out
    spec = make_system(3)
    params = random_params(spec, rng)
    reduced = marginalize(params, 3)
    assert [m.name for m in reduced.spec.mediators] == ["W1", "W2"]
    for x in (0, 1):
        assert_close(enum_logit(reduced, x), enum_logit(params, x), 1e-9,
                     "outcome law without W3")
    for j in (0, 4):
        with pytest.raises(EffectError, match="out of range 1..3"):
            marginalize(params, j)


def test_an_equation_without_the_removed_mediator_is_copied():
    rng = np.random.default_rng(99)
    spec = make_system(3, mediator_terms={"W1": ["1", "X"]})
    params = random_params(spec, rng)
    reduced = marginalize(params, 3)
    assert reduced.spec.equations["W1"] == spec.equations["W1"]
    assert (reduced.vector[reduced.spec.slices["W1"]].tolist()
            == params.vector[spec.slices["W1"]].tolist())
    for x in (0, 1):
        assert_close(enum_logit(reduced, x), enum_logit(params, x), 1e-9,
                     "outcome law without W3")


def bayes_outer_logit(params, base, w1):
    """Log odds of Y=1 given ``base`` and W1=w1 in a two-mediator system,
    W2 summed out of the joint law."""
    num = den = 0.0
    for w2 in (0, 1):
        pw2 = _expit(params.linear_predictor("W2", base))
        pw2 = pw2 if w2 == 1 else 1.0 - pw2
        pw1 = _expit(params.linear_predictor("W1", {**base, "W2": w2}))
        pw1 = pw1 if w1 == 1 else 1.0 - pw1
        py = _expit(params.linear_predictor(
            "Y", {**base, "W1": w1, "W2": w2}))
        num += py * pw1 * pw2
        den += pw1 * pw2
    return math.log(num / den) - math.log(1.0 - num / den)


def test_outer_evaluator_matches_bayes():
    rng = np.random.default_rng(98)
    for i in range(40):
        spec = make_system(2, treatment=("binary", "categorical")[i % 2],
                           covariate=True, extra_terms=("X:W1",))
        params = random_params(spec, rng)
        reduced = marginalize(params, 2)
        for x, cov in design_points(spec):
            base = {"X": x, **cov}
            for w1 in (0, 1):
                assert_close(
                    reduced.linear_predictor("Y", {**base, "W1": w1}),
                    bayes_outer_logit(params, base, w1), 1e-9,
                    "reduced outcome equation")


def test_outer_reduction_reproduces_joint_and_margins():
    rng = np.random.default_rng(99)
    for _ in range(25):
        spec, params = discrete_system(rng, 2)
        reduced = marginalize(params, 2)
        assert [m.name for m in reduced.spec.mediators] == ["W1"]
        for x, cov in design_points(spec):
            assert_close(enum_logit(reduced, x, cov),
                         enum_logit(params, x, cov), 1e-9, "outcome law")
            base = {"X": x, **cov}
            marg = sum(
                _expit(params.linear_predictor("W1", {**base, "W2": w2}))
                * (_expit(params.linear_predictor("W2", base)) if w2 == 1
                   else 1.0 - _expit(params.linear_predictor("W2", base)))
                for w2 in (0, 1))
            assert_close(reduced.linear_predictor("W1", base),
                         math.log(marg / (1.0 - marg)), 1e-9,
                         "inner mediator margin")
            for w1 in (0, 1):
                assert_close(
                    reduced.linear_predictor("Y", {**base, "W1": w1}),
                    bayes_outer_logit(params, base, w1), 1e-9,
                    "conditional outcome")


# -- path-specific effects -------------------------------------------------

def test_path_parsing():
    assert PathSpec.parse([3, 1]).indices == (1, 3)
    assert PathSpec.parse([1, 3]).indices == (1, 3)
    assert PathSpec.parse((2,)).indices == (2,)
    with pytest.raises(EffectError, match="collider"):
        PathSpec.parse([2, 1, 3])
    with pytest.raises(EffectError, match="repeated"):
        PathSpec.parse([1, 2, 2])
    with pytest.raises(EffectError, match="at least one"):
        PathSpec.parse([])
    with pytest.raises(EffectError):
        PathSpec.parse("ab")
    spec = make_system(2)
    with pytest.raises(EffectError, match="out of range"):
        PathSpec.parse([1, 5]).mask_targets(spec)


def test_worked_six_mediator_mask():
    spec = make_system(6)
    got = set(PathSpec.parse([2, 3, 5]).mask_targets(spec))
    assert got == {
        ("Y", "X"),
        ("Y", "W1"), ("Y", "W3"), ("Y", "W4"), ("Y", "W5"), ("Y", "W6"),
        ("W2", "W4"), ("W2", "W5"), ("W2", "W6"), ("W2", "X"),
        ("W3", "W4"), ("W3", "W6"), ("W3", "X"),
        ("W5", "W6"),
    }


def test_worked_six_mediator_null_conditions():
    rng = np.random.default_rng(100)
    spec = make_system(6)
    req = EffectRequest.contrast(1, 0)
    for _ in range(5):
        params = random_params(spec, rng, scale=0.8)
        assert abs(psie(params, [2, 3, 5], req)) > 1e-8
        for coord in (("W5", "X"), ("W3", "W5"), ("W2", "W3"), ("Y", "W2")):
            broken = params.replace({coord: 0.0})
            assert_close(psie(broken, [2, 3, 5], req), 0.0, 1e-12,
                         f"broken {coord}")


def test_path_null_rules_hold_generally():
    # zeroing the innermost arrow into the outcome, any consecutive link,
    # or the treatment arrow into the outermost path mediator kills it
    rng = np.random.default_rng(101)
    for _ in range(40):
        k = int(rng.integers(2, 5))
        spec, params = random_system(rng, k=k, treatment="binary",
                                     interactions=False)
        size = int(rng.integers(1, k + 1))
        idx = tuple(sorted(rng.choice(np.arange(1, k + 1), size,
                                      replace=False).tolist()))
        req = EffectRequest.contrast(1, 0, random_covariates(spec, rng))
        lo, hi = idx[0], idx[-1]
        kill = [("Y", f"W{lo}"), (f"W{hi}", "X")]
        kill += [(f"W{a}", f"W{b}") for a, b in zip(idx, idx[1:])]
        for coord in kill:
            broken = params.replace({coord: 0.0})
            assert_close(psie(broken, idx, req), 0.0, 1e-12,
                         f"null rule {coord} path {idx}")


def test_single_mediator_path_is_the_indirect_effect():
    rng = np.random.default_rng(102)
    for _ in range(40):
        spec, params = random_system(rng, k=1)
        a, b = random_treatment_pair(spec, rng)
        req = EffectRequest.contrast(a, b, random_covariates(spec, rng))
        assert_close(psie(params, [1], req),
                     decompose(params, req).indirect,
                     1e-12, "k=1 path")


def test_pure_chain_path_carries_the_whole_indirect_effect():
    # X -> W2 -> W1 -> Y only: the two-step path and the global indirect
    # effect mask identical coefficient sets
    rng = np.random.default_rng(103)
    for _ in range(40):
        spec = make_system(2)
        params = random_params(spec, rng).replace(
            {("W1", "X"): 0.0, ("Y", "W2"): 0.0})
        req = EffectRequest.contrast(1, 0)
        d = decompose(params, req)
        assert_close(psie(params, [1, 2], req), d.indirect, 1e-12, "chain")
        assert_close(psie(params, [1], req), 0.0, 1e-12, "inner alone")
        assert_close(psie(params, [2], req), 0.0, 1e-12, "outer alone")


# -- structural zeros ------------------------------------------------------

def chainless_spec(y_terms, w_terms):
    variables = [VariableSpec("Y", "outcome", "binary"),
                 VariableSpec("W1", "mediator", "binary", mediator_index=1),
                 VariableSpec("X", "treatment", "binary")]
    return SystemSpec.build(variables, {"Y": y_terms, "W1": w_terms})


def test_structurally_zero_residual_flag():
    assert residual_structurally_zero(
        chainless_spec(["1", "W1"], ["1", "X"]))
    assert residual_structurally_zero(
        chainless_spec(["1", "X"], ["1", "X"]))
    assert not residual_structurally_zero(make_system(2))


def test_treatment_absent_from_outcome_makes_the_effect_fully_indirect():
    rng = np.random.default_rng(104)
    spec = chainless_spec(["1", "W1"], ["1", "X"])
    for _ in range(30):
        params = random_params(spec, rng)
        d = decompose(params, EffectRequest.contrast(1, 0))
        assert_close(d.direct, 0.0, 1e-12, "DE")
        assert_close(d.residual, 0.0, 1e-12, "RES")
        assert_close(d.total, d.indirect, 1e-12, "TE=IE")


def test_zeroed_treatment_coefficients_behave_like_the_structural_case():
    rng = np.random.default_rng(105)
    for _ in range(30):
        k = int(rng.integers(1, 4))
        spec, params = random_system(rng, k=k, treatment="binary",
                                     interactions=False)
        params = ZeroMask.from_targets(spec, [("Y", "X")]).apply(params)
        d = decompose(params, EffectRequest.contrast(
            1, 0, random_covariates(spec, rng)))
        assert_close(d.direct, 0.0, 1e-12, "DE")
        assert_close(d.residual, 0.0, 1e-10, "RES")
        assert_close(d.total, d.indirect, 1e-10, "TE=GIE")


def test_no_mediators_delcared_is_rejected():
    variables = [VariableSpec("Y", "outcome", "binary"),
                 VariableSpec("X", "treatment", "binary")]
    spec = SystemSpec.build(variables, {"Y": ["1", "X"]})
    params = random_params(spec, np.random.default_rng(106))
    with pytest.raises(EffectError, match="no mediators"):
        decompose(params, EffectRequest.contrast(1, 0))


@pytest.mark.parametrize("seq", [5, None, 2.5])
def test_a_path_that_is_no_sequence_is_refused_by_value(seq):
    with pytest.raises(EffectError, match=re.escape(
            f"cannot read path indices from {seq!r}")):
        PathSpec.parse(seq)


def test_without_mediators_the_marginal_logit_is_y_s_linear_predictor():
    spec = SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("X", "treatment", "continuous"),
         VariableSpec("C", "covariate", "binary")],
        {"Y": ["1", "X", "C", "X:C"]})
    params = random_params(spec, np.random.default_rng(140))
    slope = params.get("Y", "X") + params.get("Y", "C:X")
    xs = np.array([-1.5, 0.0, 2.0])
    values, slopes = marginal_logit_multi(params, xs, {"C": 1}, slope=True)
    for x, value, dx in zip(xs.tolist(), values, slopes):
        assert marginal_logit_multi(params, x, {"C": 1}) == value
        assert marginal_logit_multi(params, x, {"C": 1}, slope=True) == (
            value, dx)
        assert_close(value, enum_logit(params, x, {"C": 1}), 1e-12, "value")
        assert_close(dx, slope, 1e-15, "slope")
