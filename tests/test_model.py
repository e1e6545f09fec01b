"""System declarations, term algebra, parameters, and zero masks."""

import json
import re

import numpy as np
import pytest

from logitpath import ModelSpecError, ParameterSet, SystemSpec, VariableSpec
from logitpath.model import INTERCEPT, Term, ZeroMask, column_value
from conftest import make_system, random_params


def two_level_spec():
    return make_system(1, treatment="binary", covariate=True,
                       extra_terms=("X:W1", "C:W1"))


# -- terms -----------------------------------------------------------------

def test_term_parse_and_str():
    assert Term.parse("1") == INTERCEPT
    ab = Term.parse("X:W1")
    assert ab == Term.parse("W1:X")
    assert ab.order == 2
    assert str(Term.parse("1")) == "1"
    assert Term.parse(str(ab)) == ab


def test_term_parse_rejects_garbage():
    with pytest.raises(ModelSpecError):
        Term.parse("")
    with pytest.raises(ModelSpecError):
        Term.parse("X:X")


def test_variable_spec_validation():
    with pytest.raises(ModelSpecError):
        VariableSpec("X", "sidecar", "binary")
    with pytest.raises(ModelSpecError):
        VariableSpec("X", "treatment", "flavour")
    with pytest.raises(ModelSpecError):
        VariableSpec("X", "treatment", "categorical")  # needs levels
    with pytest.raises(ModelSpecError):
        VariableSpec("W", "mediator", "binary")  # needs an index
    with pytest.raises(ModelSpecError):
        VariableSpec("W", "mediator", "binary", mediator_index=0)


def test_a_whole_number_is_an_index_and_a_boolean_is_no_number():
    # 2.0 is the index 2, kept as an int; true is no index and no level
    w = VariableSpec("W", "mediator", "binary", mediator_index=2.0)
    assert w.mediator_index == 2 and type(w.mediator_index) is int
    for index in (True, np.bool_(True), 1.5, "1"):
        with pytest.raises(ModelSpecError, match="mediator_index"):
            VariableSpec("W", "mediator", "binary", mediator_index=index)
    for levels in ((True, 2, 3), (0, np.bool_(False)), (1, [2])):
        with pytest.raises(ModelSpecError, match="numbers or strings"):
            VariableSpec("X", "treatment", "categorical", levels=levels)
    doc = make_system(2).to_json_dict()
    doc["variables"][1]["index"] = 1.0
    assert json.dumps(SystemSpec.from_json_dict(doc).to_json_dict()) \
        == json.dumps(make_system(2).to_json_dict())


# -- system validation -----------------------------------------------------

def test_valid_system_has_no_problems():
    spec = two_level_spec()
    assert spec.validate() == []
    spec.require_valid()


def test_outcome_must_be_binary():
    spec = SystemSpec.build(
        [VariableSpec("Y", "outcome", "continuous"),
         VariableSpec("X", "treatment", "binary")],
        {"Y": ["1", "X"]})
    assert any("must be binary" in p for p in spec.validate())


def test_mediator_index_gap_detected():
    spec = SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("A", "mediator", "binary", mediator_index=1),
         VariableSpec("B", "mediator", "binary", mediator_index=3),
         VariableSpec("X", "treatment", "binary")],
        {"Y": ["1", "X", "A", "B"], "A": ["1", "X", "B"], "B": ["1", "X"]})
    assert any("no gaps" in p for p in spec.validate())


def test_hierarchy_violation_detected():
    spec = SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("W", "mediator", "binary", mediator_index=1),
         VariableSpec("X", "treatment", "binary")],
        {"Y": ["1", "W", "X:W"], "W": ["1", "X"]})
    assert any("hierarchy" in p for p in spec.validate())


def test_recursivity_violation_detected():
    spec = SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("W", "mediator", "binary", mediator_index=1),
         VariableSpec("X", "treatment", "binary")],
        {"Y": ["1", "X", "W"], "W": ["1", "X", "Y"]})
    assert any("recursivity" in p for p in spec.validate())


def test_undeclared_variable_detected():
    spec = SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("X", "treatment", "binary")],
        {"Y": ["1", "X", "Z"]})
    assert any("undeclared" in p for p in spec.validate())


def test_covariate_cannot_be_response():
    spec = SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("X", "treatment", "binary"),
         VariableSpec("C", "covariate", "binary")],
        {"Y": ["1", "X"], "C": ["1", "X"]})
    assert any("cannot be a response" in p for p in spec.validate())


def test_missing_mediator_equation_detected():
    spec = SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("W", "mediator", "binary", mediator_index=1),
         VariableSpec("X", "treatment", "binary")],
        {"Y": ["1", "X", "W"]})
    assert any("has no equation" in p for p in spec.validate())


def test_ordering_outcome_first_then_mediators_then_treatment():
    spec = make_system(2, covariate=True)
    assert spec.ordering == ("Y", "W1", "W2", "X", "C")
    assert [m.name for m in spec.mediators] == ["W1", "W2"]


# -- column expansion ------------------------------------------------------

def test_categorical_expansion_reference_first():
    spec = make_system(1, treatment="categorical")
    labels = [spec.column_label(c) for c in spec.columns("Y")]
    assert "X{2,1}" in labels and "X{3,1}" in labels
    assert not any(lab == "X" for lab in labels)


def test_column_label_round_trip():
    spec = make_system(1, treatment="categorical", covariate=True,
                       extra_terms=("X:W1",))
    for resp in spec.responses:
        for col in spec.columns(resp):
            lab = spec.column_label(col)
            assert spec.parse_column_label(lab) == col


def test_column_label_with_another_reference_level_is_rejected():
    # X{2,0} reads as level 2 against level 0, but X's reference is 1
    spec = make_system(1, treatment="categorical")
    for label in ("X{2,0}", "X{3,2}", "X{2,3}:W1", "W1:X{3,3}"):
        with pytest.raises(ModelSpecError, match=re.escape(label)):
            spec.parse_column_label(label)


def test_column_value_categorical_indicator():
    spec = make_system(1, treatment="categorical")
    col = spec.parse_column_label("X{3,1}")
    assert column_value(col, {"X": 3}) == 1.0
    assert column_value(col, {"X": 2}) == 0.0


def test_column_value_missing_variable_raises():
    spec = make_system(1)
    col = spec.parse_column_label("X")
    with pytest.raises(ModelSpecError, match="no value"):
        column_value(col, {})


# -- parameter sets --------------------------------------------------------

def test_flatten_round_trip():
    rng = np.random.default_rng(3)
    spec = make_system(2, treatment="categorical", covariate=True,
                       extra_terms=("X:W1",))
    params = random_params(spec, rng)
    vec = params.vector
    again = ParameterSet.from_vector(spec, vec)
    assert np.array_equal(again.vector, vec)


def test_from_nested_fills_missing_with_zero():
    spec = make_system(1)
    params = ParameterSet.from_nested(spec, {"Y": {"X": 2.0}})
    assert params.get("Y", "X") == 2.0
    assert params.get("Y", "1") == 0.0


def test_from_nested_strict_rejects_unknown():
    spec = make_system(1)
    with pytest.raises(ModelSpecError):
        ParameterSet.from_nested(spec, {"Y": {"Q": 1.0}}, strict=True)
    full_y = ParameterSet.zeros(spec).nested()["Y"]
    with pytest.raises(ModelSpecError, match="W1"):
        ParameterSet.from_nested(spec, {"Y": full_y}, strict=True)


def test_linear_predictor_matches_hand_computation():
    spec = two_level_spec()
    params = ParameterSet.from_nested(spec, {
        "Y": {"1": -1.0, "X": 2.0, "C": 0.5, "W1": 1.5, "X:W1": -0.25,
              "C:W1": 0.75},
        "W1": {"1": -0.5, "X": 1.0, "C": 0.0}})
    got = params.linear_predictor("Y", {"X": 1, "C": 1, "W1": 1})
    assert got == pytest.approx(-1.0 + 2.0 + 0.5 + 1.5 - 0.25 + 0.75)
    got = params.linear_predictor("W1", {"X": 0, "C": 1})
    assert got == pytest.approx(-0.5)


def test_linear_predictor_requires_every_predictor():
    spec = make_system(1)
    params = ParameterSet.zeros(spec)
    with pytest.raises(ModelSpecError, match="no value"):
        params.linear_predictor("Y", {"X": 1})  # W1 not supplied


def test_replace_accepts_labels():
    spec = make_system(1)
    params = ParameterSet.zeros(spec).replace({("Y", "X"): 3.0})
    assert params.get("Y", "X") == 3.0


# -- zero masks ------------------------------------------------------------

def test_zero_out_takes_interactions_with_it():
    spec = two_level_spec()
    rng = np.random.default_rng(4)
    params = random_params(spec, rng)
    masked = ZeroMask.from_targets(spec, [("Y", "X")]).apply(params)
    assert masked.get("Y", "X{2,1}" if False else "X") == 0.0
    assert masked.get("Y", "X:W1") == 0.0
    assert masked.get("Y", "W1") == params.get("Y", "W1")
    assert masked.get("W1", "X") == params.get("W1", "X")


def test_zero_out_absent_target_is_noop():
    spec = make_system(2)  # W2 equation has no W-effect on W1? it does; use C
    rng = np.random.default_rng(5)
    params = random_params(spec, rng)
    # W1 never appears in W2's eq
    masked = ZeroMask.from_targets(spec, [("W2", "W1")]).apply(params)
    assert np.array_equal(masked.vector, params.vector)


def test_zero_mask_rejects_unknown_response_or_variable():
    spec = make_system(1)
    with pytest.raises(ModelSpecError):
        ZeroMask.from_targets(spec, [("X", "W1")])  # X has no equation
    with pytest.raises(ModelSpecError):
        ZeroMask.from_targets(spec, [("Y", "Q")])


def test_zero_mask_union_and_idempotence():
    spec = two_level_spec()
    rng = np.random.default_rng(6)
    params = random_params(spec, rng)
    m1 = ZeroMask.from_targets(spec, [("Y", "X")])
    m2 = ZeroMask.from_targets(spec, [("Y", "W1")])
    both = ZeroMask.from_targets(spec, [("Y", "X"), ("Y", "W1")])
    once = both.apply(params)
    assert np.array_equal(once.vector, both.apply(once).vector)
    assert once.get("Y", "X") == 0.0 and once.get("Y", "W1") == 0.0
    assert np.array_equal(both.zeroed, m1.zeroed | m2.zeroed)
    with pytest.raises(ValueError):
        both.zeroed[0] = True


def test_zero_mask_belongs_to_its_system():
    spec = two_level_spec()
    rng = np.random.default_rng(7)
    mask = ZeroMask.from_targets(spec, [("Y", "X")])
    # an equal spec is the same system; a different one is refused even
    # when its coefficient vector has the same length
    twin = SystemSpec.from_json_dict(spec.to_json_dict())
    params = random_params(twin, rng)
    assert np.array_equal(mask.apply(params).vector,
                          ZeroMask.from_targets(twin, [("Y", "X")])
                          .apply(params).vector)
    other = make_system(1, covariate=True, extra_terms=("X:W1", "X:C"))
    assert len(other.flat_coords) == len(spec.flat_coords)
    with pytest.raises(ModelSpecError, match="system it was built for"):
        mask.apply(random_params(other, rng))


# -- serialization ---------------------------------------------------------

def test_spec_json_round_trip():
    spec = make_system(2, treatment="categorical", covariate=True,
                       extra_terms=("X:W1", "C:W1"))
    blob = json.dumps(spec.to_json_dict())
    again = SystemSpec.from_json_dict(json.loads(blob))
    assert again.ordering == spec.ordering
    assert again.equations == spec.equations
    assert [v.kind for v in again.variables] == [v.kind for v in spec.variables]


def test_spec_from_json_rejects_bad_role():
    doc = {"variables": [{"name": "Y", "role": "hero", "kind": "binary"}],
           "equations": {}}
    with pytest.raises(ModelSpecError):
        SystemSpec.from_json_dict(doc)


# -- refusals that name their value ----------------------------------------

def _one_mediator(mediator_kind="binary", **equations):
    V = VariableSpec
    return SystemSpec.build(
        [V("Y", "outcome", "binary"),
         V("W", "mediator", mediator_kind, mediator_index=1),
         V("X", "treatment", "binary")],
        {"Y": ["1", "X", "W"], "W": ["1", "X"], **equations})


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: VariableSpec("X", "treatment", "categorical",
                                      levels=(1, 1)),
                 "categorical variable 'X' has duplicate levels",
                 id="duplicate-levels"),
    pytest.param(lambda: VariableSpec("X", "treatment", "continuous",
                                      levels=(1, 2)),
                 "levels are only allowed on categorical variables ('X')",
                 id="levels-on-continuous"),
    pytest.param(lambda: SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("Y", "treatment", "binary")], {"Y": ["1"]}
    ).require_valid(), "duplicate variable name 'Y'", id="duplicate-name"),
    pytest.param(lambda: SystemSpec.build(
        [VariableSpec("X", "treatment", "binary")], {}).require_valid(),
        "system declares 0 outcome variables, needs 1", id="no-outcome"),
    pytest.param(lambda: SystemSpec.build(
        [VariableSpec("Y", "outcome", "binary"),
         VariableSpec("X", "treatment", "binary"),
         VariableSpec("Z", "treatment", "binary")], {"Y": ["1"]}).treatment,
        "system declares 2 treatment variables, needs 1",
        id="two-treatments"),
    pytest.param(lambda: _one_mediator().terms("Q"),
                 "no equation for response 'Q'", id="terms"),
    pytest.param(lambda: _one_mediator().columns("Q"),
                 "no equation for response 'Q'", id="columns"),
    pytest.param(lambda: _one_mediator().coord("W", "W"),
                 "no coefficient for 'W' column 'W'", id="coord"),
    pytest.param(lambda: _one_mediator("continuous").require_valid(),
                 "mediator 'W' must be binary", id="continuous-mediator"),
    pytest.param(lambda: _one_mediator(Q=["1"]).require_valid(),
                 "equation for undeclared variable 'Q'",
                 id="undeclared-response"),
    pytest.param(lambda: _one_mediator(W=["1", "X", "X"]).require_valid(),
                 "W: duplicate term X", id="duplicate-term"),
    pytest.param(lambda: _one_mediator(X=["1"]).require_valid(),
                 "treatment 'X' cannot be a response",
                 id="treatment-response"),
    pytest.param(lambda: ParameterSet(_one_mediator(), [1.0, 2.0]),
                 "vector of shape (2,) does not match the 5 coefficients",
                 id="vector-shape"),
    pytest.param(lambda: ParameterSet(_one_mediator(), np.zeros(5))
                 .linear_predictor("Q", {}),
                 "no equation for response 'Q'", id="linear-predictor"),
])
def test_a_model_refusal_names_the_value(call, message):
    with pytest.raises(ModelSpecError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("kind,value,named", [
    ("continuous", np.array([[0.5], 1.0], dtype=object),
     "[0.5] (array entry [0])"),
    ("continuous", np.array([[1.0, 2.0], [np.inf, np.nan]]),
     "inf (array entry [1, 0])"),
    ("binary", np.array([0, 1, 2, 3]), "2 (array entry [2])"),
    ("binary", np.array([True, False]), "True (array entry [0])"),
    ("continuous", np.array([np.array([0.5]), 1.0], dtype=object),
     "array([array(... dtype=object)"),
    ("continuous", "a", "'a'"),
    ("binary", 2, "2"),
], ids=["unhashable-entry", "2-d", "binary-2", "boolean", "nested-array",
        "text", "scalar"])
def test_a_refusal_names_the_first_array_entry_at_fault(kind, value, named):
    # before: reprlib's 30 characters of the whole array, such as
    # "array([list([... dtype=object)"; a scalar's message is unchanged,
    # and an array whose entries each pass (an array nested in one) is
    # named whole
    var = VariableSpec("X", "treatment", kind)
    assert not var.takes(value)
    wanted = "a finite number" if kind == "continuous" else "0 or 1"
    assert var.refusal(value) == (f"treatment 'X' cannot take {named}; "
                                  f"it takes {wanted}")


def test_a_parameter_set_equals_only_its_system_and_values():
    spec = _one_mediator()
    params = ParameterSet(spec, np.arange(5.0))
    assert params == ParameterSet(_one_mediator(), np.arange(5.0))
    assert params != ParameterSet(spec, np.arange(5.0) + 1.0)
    assert params != "params"
    assert params.__eq__(np.arange(5.0)) is NotImplemented


@pytest.mark.parametrize("kind,levels", [
    ("binary", ()), ("categorical", (1, 2.5, 3)),
    ("categorical", ("1", "2", 3.0)), ("categorical", (0, -1, 2 ** 60))])
def test_a_numeric_array_is_taken_as_each_of_its_values(kind, levels):
    # an array of numbers passes exactly when each of its distinct values
    # does, whatever its dtype, order or shape
    var = VariableSpec("X", "treatment", kind, levels=levels)
    values = [0, 1, 2, 2.5, 3, -1, -0.0, np.nan, np.inf, -np.inf, 2 ** 60]
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 3, 6):
        for _ in range(40):
            picked = rng.choice(np.array(values, dtype=object), size)
            for dtype in (float, np.int64, np.uint8):
                try:
                    array = np.array(list(picked), dtype=dtype)
                except (OverflowError, ValueError):
                    continue
                if array.tolist() != list(picked) and dtype is not float:
                    continue    # a value the dtype cannot hold
                expected = all(var.takes(v) for v in array.ravel().tolist())
                assert var.takes(array) is expected
                assert var.takes(array.reshape(-1, 1)) is expected
