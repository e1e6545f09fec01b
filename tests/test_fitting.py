"""Data ingestion and weighted maximum likelihood."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

from logitpath import (Dataset, FittedSystem, ModelSpecError, SystemSpec,
                       VariableSpec, fit_logistic, fit_system)
from logitpath.fitting import (DataError, FitError, _dependent, coerce_column,
                               coerce_value, design_matrix, irls, patterns,
                               tabulate, weighted_patterns)
from conftest import make_system, random_params


def small_spec():
    return make_system(1, treatment="binary", covariate=False)


def simulate(spec, params, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n).astype(float)
    pw = expit(params.get("W1", "1") + params.get("W1", "X") * x)
    w = (rng.random(n) < pw).astype(float)
    py = expit(params.get("Y", "1") + params.get("Y", "X") * x
               + params.get("Y", "W1") * w)
    y = (rng.random(n) < py).astype(float)
    return Dataset.from_records({"Y": y, "X": x, "W1": w})


# -- loaders ---------------------------------------------------------------

def test_rows_patterns_records_agree():
    rows = [{"Y": 1, "X": 0, "W1": 1, "count": 3},
            {"Y": 0, "X": 1, "W1": 0, "count": 2}]
    d1 = Dataset.from_rows(rows)
    d2 = Dataset.from_patterns({"Y": [1, 0], "X": [0, 1], "W1": [1, 0]},
                               [3, 2])
    assert d1.n == d2.n == 5
    assert d1.nrows == 2
    assert list(d1.counts) == list(d2.counts)


def test_csv_and_json_loaders(tmp_path):
    csv_path = tmp_path / "d.csv"
    rows = [{"Y": y, "X": x, "W1": w, "count": c}
            for (y, x, w, c) in [(0, 0, 0, 9), (1, 0, 0, 4), (0, 1, 0, 6),
                                 (1, 1, 0, 8), (0, 0, 1, 3), (1, 0, 1, 5),
                                 (0, 1, 1, 2), (1, 1, 1, 7)]]
    csv_path.write_text("Y,X,W1,count\n" + "\n".join(
        f"{r['Y']},{r['X']},{r['W1']},{r['count']}" for r in rows) + "\n")
    json_path = tmp_path / "d.json"
    json_path.write_text(json.dumps({"rows": rows}))
    spec = small_spec()
    a = Dataset.load(csv_path)
    b = Dataset.load(json_path)
    fa = fit_system(a, spec).params.vector
    fb = fit_system(b, spec).params.vector
    assert np.allclose(fa, fb, atol=1e-12)


@pytest.mark.parametrize("name,text", [
    ("d.csv", "Y,W,X,C,X\n1,0,1,0,0\n"),
    ("d.json", '[{"Y": 1, "W": 0, "X": 1, "C": 0, "X": 0}]'),
    ("d.json", '{"rows": [{"Y": 1, "X": 1}, {"Y": 0, "X": 1, "X": 0}]}'),
], ids=["csv-header", "json-row", "json-second-row"])
def test_a_column_named_twice_is_refused(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DataError,
                       match=rf"^{re.escape(str(path))}: .*'X'.* twice"):
        Dataset.load(path)


@pytest.mark.parametrize("line,fields", [("0,1,1,0,1", 5), ("0,1,1", 3)],
                         ids=["extra-field", "missing-field"])
def test_a_csv_row_with_the_wrong_number_of_fields_is_named(tmp_path, line,
                                                            fields):
    good = "Y,W,X,C\n1,0,1,0\n\n0,0,1,1\n1,1,0,0\n0,1,0,1\n"
    path = tmp_path / "d.csv"
    path.write_text(good)
    assert Dataset.load(path).nrows == 4    # a blank line is skipped
    path.write_text(good + line + "\n")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: row 5 "
                       rf"has {fields} fields; the header has 4$"):
        Dataset.load(path)


def test_dataset_rejects_ragged_and_negative():
    with pytest.raises(DataError):
        Dataset.from_patterns({"Y": [1, 0], "X": [1]}, [1, 1])
    with pytest.raises(DataError):
        Dataset.from_patterns({"Y": [1], "X": [1]}, [-2])


def test_from_rows_rejects_a_key_missing_from_the_first_row():
    with pytest.raises(DataError, match=r"'B'.*row 2"):
        Dataset.from_rows([{"A": 1}, {"A": 0, "B": 2}])


@pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "10**400"])
def test_dataset_names_the_row_of_a_non_finite_count(count):
    for make in (Dataset.from_patterns, Dataset):
        with pytest.raises(DataError, match=r"^row 2 has count .*finite"):
            make({"Y": [1, 0, 1], "X": [1, 0, 0]}, [3, count, 1])


@pytest.mark.parametrize("call", [
    lambda: coerce_value(VariableSpec("X", "treatment", "continuous"),
                         10 ** 400),
    lambda: coerce_value(VariableSpec("X", "treatment", "categorical",
                                      levels=(1, 2)), 10 ** 400),
    lambda: coerce_value(VariableSpec("X", "treatment", "binary"),
                         "9" * 401),
    lambda: Dataset.from_rows([{"X": 0}, {"X": 1, "count": 10 ** 400}]),
    lambda: Dataset.from_rows([{"X": 0}, {"X": 1, "Q" * 401: 0}]),
], ids=["continuous", "categorical", "binary", "count", "column"])
def test_errors_shorten_a_huge_value(call):
    with pytest.raises(DataError) as err:
        call()
    assert len(str(err.value)) < 100


def test_errors_print_a_short_value_whole():
    var = VariableSpec("X", "treatment", "continuous")
    with pytest.raises(DataError, match=r"^treatment 'X' cannot take 'abc'; "
                                        r"it takes a finite number$"):
        coerce_value(var, "abc")
    with pytest.raises(DataError, match=r"^treatment 'X' cannot take 2\.5; "
                                        r"it takes 0 or 1$"):
        coerce_value(VariableSpec("X", "treatment", "binary"), 2.5)
    with pytest.raises(DataError, match=r"^row 2 has count 'x'; "):
        Dataset.from_rows([{"X": 0}, {"X": 1, "count": "x"}])


@pytest.mark.parametrize("count", ["x", "nan", "inf", -1, None, 10 ** 400,
                                   True, False],
                         ids=["x", "nan", "inf", "-1", "None", "10**400",
                              "true", "false"])
def test_from_rows_rejects_unusable_counts(count):
    # a JSON true or false is no number, as in every other numeric field
    rows = [{"Y": 1, "X": 0, "count": 2}, {"Y": 0, "X": 1, "count": count}]
    with pytest.raises(DataError, match=r"row 2 has count .*finite"):
        Dataset.from_rows(rows)


@pytest.mark.parametrize("treatment", ["binary", "continuous", "categorical"])
@pytest.mark.parametrize("column", ["Y", "W1", "X", "C"])
@pytest.mark.parametrize("value", [True, False])
def test_a_boolean_data_value_is_refused(treatment, column, value):
    # true and false are no numbers: before, a JSON true was fitted as 1
    spec = make_system(1, treatment=treatment, covariate=True)
    xs = (1, 2) if treatment == "categorical" else (0, 1)
    rows = [{"Y": y, "W1": w, "X": x, "C": c}
            for y in (0, 1) for w in (0, 1) for x in xs for c in (0, 1)]
    rows[0][column] = value
    var = spec.variable(column)
    takes = {"binary": "0 or 1", "continuous": "a finite number",
             "categorical": "a level in [1, 2, 3]"}[var.kind]
    with pytest.raises(DataError, match=re.escape(
            f"row 1: {var.role} '{column}' cannot take {value}; it takes "
            f"{takes}")):
        fit_system(Dataset.from_rows(rows), spec)


def test_a_whole_number_of_iterations_loads_as_an_integer():
    spec = small_spec()
    fitted = fit_system(simulate(spec, random_params(
        spec, np.random.default_rng(7)), 400, 8), spec)
    doc = json.loads(json.dumps(fitted.to_json_dict()))
    doc["diagnostics"]["Y"]["iterations"] = float(fitted.diagnostics[
        "Y"].iterations)
    loaded = FittedSystem.from_json_dict(doc).diagnostics["Y"].iterations
    assert loaded == fitted.diagnostics["Y"].iterations
    assert type(loaded) is int


def test_a_boolean_array_is_no_column_and_no_counts():
    spec = make_system(1, covariate=True)
    columns = {"Y": [1, 0, 1], "W1": [0, 1, 1], "X": [1, 0, 0], "C": [0, 1, 0]}
    with pytest.raises(DataError, match=r"^row 1 has count True; "):
        Dataset.from_patterns(columns, np.array([True, True, False]))
    flags = {**columns, "C": np.array([False, True, False])}
    with pytest.raises(DataError, match=r"row 1: covariate 'C' cannot take "
                                        r"(np\.)?False_?; it takes 0 or 1"):
        fit_system(Dataset.from_records(flags), spec)


@pytest.mark.parametrize("kind,levels", [
    ("continuous", ()), ("binary", ()), ("categorical", (1, 2, 3))],
    ids=["continuous", "binary", "categorical"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", math.nan, 1e400,
                                 10 ** 400],
                         ids=["'nan'", "'inf'", "'-inf'", "nan", "1e400",
                              "10**400"])
def test_coerce_value_refuses_non_finite_and_oversized_numbers(kind, levels,
                                                               raw):
    var = VariableSpec("X", "treatment", kind, levels=levels)
    with pytest.raises(DataError, match="'X'"):
        coerce_value(var, raw)


def test_categorical_values_match_numeric_levels_numerically():
    var = VariableSpec("X", "treatment", "categorical", levels=(1, 2, 3))
    got = coerce_column(var, np.array(["1.0", 2.0, "3", 1], dtype=object))
    assert got.tolist() == [1, 2, 3, 1]
    assert all(type(v) is int for v in got)
    with pytest.raises(DataError, match=r"^row 1: treatment 'X' cannot take "
                       r"'4\.0'; it takes a level in \[1, 2, 3\]$"):
        coerce_column(var, np.array(["4.0"], dtype=object))
    named = VariableSpec("C", "covariate", "categorical",
                         levels=("a", "1", "b"))
    assert coerce_column(named, np.array(["a", "1"], dtype=object)).tolist() \
        == ["a", "1"]
    with pytest.raises(DataError, match=r"^row 1: covariate 'C' cannot take "
                       r"'1\.0'; it takes a level in \['a', '1', 'b'\]$"):
        coerce_column(named, np.array(["1.0"], dtype=object))


def test_a_boolean_or_null_names_no_level():
    # before, JSON true, false and null named these levels by their text
    var = VariableSpec("C", "covariate", "categorical",
                       levels=("True", "False", "None"))
    assert coerce_column(var, np.array(["True", "None"], dtype=object)
                         ).tolist() == ["True", "None"]
    for raw in (True, False, None):
        with pytest.raises(DataError, match=rf"^row 1: covariate 'C' cannot "
                                            rf"take {raw}; it takes a level"):
            coerce_column(var, np.array([raw], dtype=object))


def _walk(var, values):
    """What ``coerce_column`` must give: each value by ``coerce_value``,
    or the DataError of the first that fails, named by its row."""
    out = []
    for row, raw in enumerate(values, 1):
        try:
            out.append(coerce_value(var, raw))
        except DataError as e:
            return f"row {row}: {e}"
    return np.asarray(out, dtype=object if var.kind == "categorical"
                      else float)


_PAD = st.sampled_from(["", " ", "\t", " \n"])


def _padded(numbers):
    return st.builds(lambda x, left, right: f"{left}{x!r}{right}", numbers,
                     _PAD, _PAD)


_RAW = st.one_of(
    st.sampled_from([0, 1, 2, 0.0, -0.0, 1.0, True, False, None, "1", "0",
                     " 0 ", "-0", "1.5e0", "1_000", "0x1", "nan", "inf",
                     "-inf", "NaN", 10 ** 400, "9" * 401, "1e400", "", "x",
                     "abc", "a", "b", "c", "1.0", "2.0", "3"]),
    st.integers(-3, 3), st.floats(), _padded(st.floats()))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("var,taken", [
    (VariableSpec("X", "treatment", "binary"),
     st.sampled_from([0, 1, 0.0, -0.0, 1.0, "1", " 0 ", "-0", "1.0", "0e0",
                      "\t1\n", "0_0"])),
    (VariableSpec("X", "treatment", "continuous"),
     st.one_of(_FINITE, st.integers(-10 ** 6, 10 ** 6), _padded(_FINITE),
               st.sampled_from(["1_000", "-0", "1e308"]))),
    (VariableSpec("X", "treatment", "categorical", levels=(1, 2, 3)),
     st.sampled_from([1, 2, 3, 2.0, "1", "2.0", " 3", "3e0"])),
    (VariableSpec("C", "covariate", "categorical", levels=("a", "1", "b")),
     st.sampled_from(["a", "b", "1", 1])),
], ids=["binary", "continuous", "categorical-numbers", "categorical-names"])
@given(data=st.data())
def test_a_column_is_coerced_as_its_values_are_one_by_one(var, taken, data):
    # values the variable takes, with a few raw values of any sort
    # slipped in at drawn rows
    values = data.draw(st.lists(taken, max_size=8))
    for raw in data.draw(st.lists(_RAW, max_size=2)):
        values.insert(data.draw(st.integers(0, len(values))), raw)
    column = np.array(values, dtype=object)
    want = _walk(var, column)
    if isinstance(want, str):
        with pytest.raises(DataError) as err:
            coerce_column(var, column)
        assert str(err.value) == want
        return
    got = coerce_column(var, column)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert [(type(a), a) for a in got.tolist()] \
        == [(type(b), b) for b in want.tolist()]
    if got.dtype == float:
        assert np.array_equal(np.signbit(got), np.signbit(want))


# -- weighting -------------------------------------------------------------

def test_pattern_weights_match_expanded_rows():
    spec = small_spec()
    patterns = [{"Y": y, "X": x, "W1": w, "count": c}
                for (y, x, w, c) in [(0, 0, 0, 11), (1, 0, 0, 4),
                                     (0, 1, 0, 6), (1, 1, 0, 9),
                                     (0, 0, 1, 2), (1, 0, 1, 5),
                                     (0, 1, 1, 1), (1, 1, 1, 13)]]
    expanded = []
    for row in patterns:
        expanded += [{k: row[k] for k in ("Y", "X", "W1")}] * row["count"]
    f1 = fit_system(Dataset.from_rows(patterns), spec)
    f2 = fit_system(Dataset.from_rows(expanded), spec)
    assert np.allclose(f1.params.vector, f2.params.vector, atol=1e-10)
    assert np.allclose(f1.covariance_matrix(), f2.covariance_matrix(),
                       atol=1e-10)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                          st.integers(0, 3),
                          st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.25])),
                min_size=1, max_size=40))
def test_tabulated_patterns_are_the_distinct_rows_and_their_counts(rows):
    keys, weights = np.array([r[:3] for r in rows]), [r[3] for r in rows]
    columns = keys.T.astype(float)
    values, counts = patterns(tabulate(columns, (3, 2, 4)))
    want, inverse, want_counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True)
    assert np.array_equal(values, want) and values.dtype == float
    assert np.array_equal(counts, want_counts) and counts.dtype == float
    # weighted: each distinct row's summed weights, a zero sum dropped
    sums = np.zeros(len(want))
    np.add.at(sums, inverse.ravel(), weights)
    values, counts = patterns(tabulate(columns, (3, 2, 4), weights))
    assert np.array_equal(values, want[sums > 0]) and values.dtype == float
    assert np.array_equal(counts, sums[sums > 0]) and counts.dtype == float


def test_zero_count_patterns_are_inert():
    spec = small_spec()
    rows = [{"Y": y, "X": x, "W1": w, "count": c}
            for (y, x, w, c) in [(0, 0, 0, 8), (1, 0, 0, 3), (0, 1, 0, 5),
                                 (1, 1, 0, 7), (0, 0, 1, 4), (1, 0, 1, 2),
                                 (0, 1, 1, 6), (1, 1, 1, 9)]]
    with_zero = rows + [{"Y": 0, "X": 0, "W1": 1, "count": 0}]
    f1 = fit_system(Dataset.from_rows(rows), spec)
    f2 = fit_system(Dataset.from_rows(with_zero), spec)
    assert np.allclose(f1.params.vector, f2.params.vector, atol=1e-12)


# a fit on patterns and one on rows stop at points within the stopping rule
# that differ by at most this much of 1 + |beta| (``DISCRETE_BOUND`` of
# tools/same_numbers.py)
DISCRETE_BOUND = 3e-8


def drawn_records(spec, n, seed):
    """``n`` records of ``spec`` drawn from seeded coefficients, outermost
    mediator first, with counts 0, 1/3, 2/3 and 1, whose sums round."""
    rng = np.random.default_rng(seed)
    truth = random_params(spec, rng, scale=0.7)

    def draw(var):
        if var.kind == "categorical":
            return np.array(var.levels, dtype=object)[
                rng.integers(0, len(var.levels), n)]
        if var.kind == "binary":
            return (rng.random(n) < 0.5).astype(float)
        return rng.normal(0.0, 1.2, n)

    cols = {v.name: draw(v) for v in (spec.treatment, *spec.covariates)}
    for resp in reversed(spec.responses):
        p = expit(np.broadcast_to(truth.linear_predictor(resp, cols), n))
        cols[resp] = (rng.random(n) < p).astype(float)
    return Dataset.from_patterns(cols, rng.integers(0, 4, n) / 3)


def test_a_discrete_system_is_fitted_on_its_weighted_patterns():
    spec = make_system(1, treatment="categorical", covariate=True)
    data = drawn_records(spec, 3000, seed=34)
    assert np.any(data.counts == 0)
    table = weighted_patterns(spec, data)
    # Y, W1, C binary and X of 3 levels: at most 24 patterns, none empty
    assert table.nrows <= 24 and np.all(table.counts > 0)
    assert np.isclose(table.n, data.n, rtol=1e-13)
    fitted = fit_system(data, spec)
    assert fitted.n == data.n
    for resp in spec.responses:
        on_patterns, on_rows = (fitted.diagnostics[resp],
                                fit_logistic(data, spec, resp))
        assert np.all(np.abs(on_patterns.coef - on_rows.coef)
                      <= DISCRETE_BOUND * (1.0 + np.abs(on_rows.coef)))
        assert np.allclose(on_patterns.cov, on_rows.cov, rtol=1e-8, atol=0.0)
        assert on_patterns.converged and on_rows.converged
        assert on_patterns.separation == on_rows.separation


@pytest.mark.parametrize("spec,n", [
    (make_system(2, treatment="continuous", covariate=True), 2000),
    (make_system(2, treatment="categorical", covariate="categorical"), 60),
], ids=["continuous-treatment", "grid-larger-than-the-rows"])
def test_a_system_not_fitted_on_patterns_keeps_the_row_fit_bits(spec, n):
    # a continuous variable, or a grid (2^3 x 3 x 3 = 72 cells here) with
    # more cells than the data has rows, leaves the data as it is
    data = drawn_records(spec, n, seed=35)
    assert weighted_patterns(spec, data) is data
    fitted = fit_system(data, spec)
    for resp in spec.responses:
        rows = fit_logistic(data, spec, resp)
        got = fitted.diagnostics[resp]
        assert got.coef.tobytes() == rows.coef.tobytes()
        assert got.cov.tobytes() == rows.cov.tobytes()
        assert (got.loglik, got.iterations) == (rows.loglik, rows.iterations)


def test_a_bad_field_of_a_pattern_fitted_csv_names_the_file_and_row(
        tmp_path):
    from click.testing import CliRunner
    from importlib import resources
    from logitpath.cli import main
    # 200 records of the bundled model's 24 cells, X = 4 in row 137
    rows = [f"{i % 2},{i // 2 % 2},{i % 3 + 1},{i // 6 % 2}"
            for i in range(200)]
    rows[136] = "1,0,4,1"
    data = tmp_path / "records.csv"
    data.write_text("Y,W,X,C\n" + "\n".join(rows) + "\n")
    model = resources.files("logitpath") / "data" / "example_model.json"
    message = ("equation Y: row 137: treatment 'X' cannot take '4'; it "
               "takes a level in [1, 2, 3]")
    spec = SystemSpec.from_json_dict(json.loads(model.read_text()))
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        fit_system(Dataset.load(data), spec)
    result = CliRunner().invoke(main, ["fit", "--data", str(data),
                                       "--model", str(model)])
    assert result.exit_code == 1
    assert f"error: {data}: {message} (for the system in" in result.output


def test_a_separated_discrete_table_is_still_flagged():
    spec = small_spec()
    # 80 records of 4 patterns, Y == W1 in each
    data = Dataset.from_rows([{"Y": w, "X": x, "W1": w}
                              for x in (0, 1) for w in (0, 1)] * 20)
    assert weighted_patterns(spec, data).nrows == 4
    fitted = fit_system(data, spec)
    assert fitted.diagnostics["Y"].separation
    assert fit_logistic(data, spec, "Y").separation


# -- estimation ------------------------------------------------------------

def test_recovers_known_coefficients():
    rng = np.random.default_rng(11)
    spec = small_spec()
    truth = random_params(spec, rng)
    data = simulate(spec, truth, 60_000, seed=12)
    fitted = fit_system(data, spec)
    assert np.allclose(fitted.params.vector, truth.vector, atol=0.08)


def test_covariance_is_inverse_observed_information():
    spec = small_spec()
    data = simulate(spec, random_params(spec, np.random.default_rng(21)),
                    2_000, seed=22)
    eq = fit_logistic(data, spec, "Y")
    X, y, w = design_matrix(spec, "Y", data)

    def loglik(beta):
        eta = X @ beta
        return float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))

    k = len(eq.coef)
    h = 1e-5
    hess = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            ei = np.eye(k)[i] * h
            ej = np.eye(k)[j] * h
            hess[i, j] = (loglik(eq.coef + ei + ej) - loglik(eq.coef + ei - ej)
                          - loglik(eq.coef - ei + ej)
                          + loglik(eq.coef - ei - ej)) / (4 * h * h)
    assert np.allclose(eq.cov, np.linalg.inv(-hess), rtol=1e-4, atol=1e-8)


def test_collinear_design_is_named():
    spec = make_system(1, covariate=True)
    n = 200
    rng = np.random.default_rng(31)
    x = rng.integers(0, 2, n).astype(float)
    data = Dataset.from_records({
        "Y": rng.integers(0, 2, n).astype(float),
        "X": x, "C": x,  # C duplicates X exactly
        "W1": rng.integers(0, 2, n).astype(float)})
    with pytest.raises(FitError, match="collinear"):
        fit_system(data, spec)


def test_dependent_columns_are_the_rank_deficit_in_design_order():
    rng = np.random.default_rng(5)
    for n, p, rank in [(50, 4, 4), (50, 5, 3), (3, 5, 3), (40, 6, 1),
                       (0, 3, 0)]:
        X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, p))
        assert _dependent(X).tolist() == list(range(rank, p))
        assert np.linalg.matrix_rank(X) == rank
    x, z = rng.normal(size=(2, 30))
    assert _dependent(np.column_stack([np.ones(30), x, 2 * x, z])).tolist() \
        == [2]


def test_non_binary_response_rejected():
    spec = small_spec()
    data = Dataset.from_records({"Y": [0, 2, 1], "X": [0, 1, 0],
                                 "W1": [1, 0, 1]})
    with pytest.raises(DataError):
        fit_logistic(data, spec, "Y")


def test_separation_is_flagged():
    spec = small_spec()
    # Y == W1 everywhere: the W1 coefficient runs away
    rows = [{"Y": 0, "X": 0, "W1": 0, "count": 20},
            {"Y": 1, "X": 0, "W1": 1, "count": 20},
            {"Y": 0, "X": 1, "W1": 0, "count": 20},
            {"Y": 1, "X": 1, "W1": 1, "count": 20}]
    fitted = fit_system(Dataset.from_rows(rows), spec)
    assert fitted.diagnostics["Y"].separation
    assert "separation" in fitted.summary_text()


def test_equation_errors_carry_the_equation_name():
    spec = small_spec()
    data = Dataset.from_records({"Y": [0, 1, 0, 1], "X": [0, 1, 0, 1],
                                 "W1": [0, 0.5, 1, 0.5]})
    with pytest.raises((DataError, FitError), match="W1"):
        fit_system(data, spec)


# -- artifacts -------------------------------------------------------------

def test_fitted_system_json_round_trip():
    spec = small_spec()
    data = simulate(spec, random_params(spec, np.random.default_rng(41)),
                    500, seed=42)
    fitted = fit_system(data, spec)
    doc = json.loads(json.dumps(fitted.to_json_dict()))
    again = FittedSystem.from_json_dict(doc)
    assert np.allclose(again.params.vector, fitted.params.vector,
                       atol=0.0)
    assert np.allclose(again.covariance_matrix(), fitted.covariance_matrix(),
                       atol=0.0)
    assert again.n == fitted.n


def test_summary_text_lists_every_label():
    spec = make_system(1, treatment="categorical", covariate=True,
                       extra_terms=("X:W1",))
    rng = np.random.default_rng(51)
    n = 400
    x = rng.choice([1, 2, 3], n)
    c = rng.integers(0, 2, n)
    w = rng.integers(0, 2, n)
    y = rng.integers(0, 2, n)
    fitted = fit_system(Dataset.from_records(
        {"Y": y, "X": x, "C": c, "W1": w}), spec)
    text = fitted.summary_text()
    for label in ("X{2,1}", "X{3,1}", "W1:X{2,1}", "C"):
        assert label in text


def test_irls_converges_on_clean_problem():
    rng = np.random.default_rng(61)
    n = 1000
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    beta = np.array([-0.5, 1.25])
    y = (rng.random(n) < expit(X @ beta)).astype(float)
    coef, cov, loglik, iters, converged, separation = irls(X, y, np.ones(n))
    assert converged and not separation
    assert iters < 10
    assert np.allclose(coef, beta, atol=0.2)


def test_one_far_out_point_is_not_a_separation_ray():
    # 199 overlapping points pin the slope near 3; the point at x = -6
    # then has a fitted logit near -18, which alone is no ray
    rng = np.random.default_rng(62)
    n = 200
    x = np.append(rng.normal(size=n - 1), -6.0)
    X = np.column_stack([np.ones(n), x])
    y = (rng.random(n) < expit(3.0 * x)).astype(float)
    beta, _, _, _, converged, separation = irls(X, y, np.ones(n))
    assert (X @ beta)[-1] < -15.0
    assert converged and not separation


def test_irls_rejects_a_step_that_halving_cannot_rescue():
    # a small weighted design near separation: the 11th Newton step lowers
    # the log-likelihood by about 200 even after MAX_HALVINGS halvings;
    # keeping it used to end in converged=True, separation=False
    X = np.column_stack([np.ones(6),
                         [-0.808, 0.079, -0.254, -0.626, -0.078, -1.923],
                         [-0.982, 0.976, 1.363, 0.877, -0.465, 1.182]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    w = np.array([0.00106, 0.0152, 140.0, 88.0, 0.00617, 0.00138])
    beta, _, loglik, iterations, converged, separation = irls(X, y, w)
    eta = X @ beta
    assert loglik == pytest.approx(
        float(np.sum(w * (y * eta - np.logaddexp(0.0, eta)))), abs=1e-12)
    assert iterations == 11
    assert not converged and separation


# -- refusals that name their value ----------------------------------------

def _diagnostics_of_no_equation():
    spec = small_spec()
    data = simulate(spec, random_params(spec, np.random.default_rng(43)),
                    300, seed=44)
    doc = json.loads(json.dumps(fit_system(data, spec).to_json_dict()))
    doc["diagnostics"]["Q"] = doc["diagnostics"]["Y"]
    return doc


def _treatment_response(treatment="categorical"):
    # a treatment given an equation of its own
    spec = make_system(1, treatment=treatment)
    doc = spec.to_json_dict()
    doc["equations"]["X"] = ["1"]
    return SystemSpec.from_json_dict(doc)


def _treatment_data():
    return Dataset.from_records({"Y": [0, 1] * 6, "X": [1, 2, 3] * 4,
                                 "W1": [0, 0, 1, 1] * 3})


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: fit_system(Dataset.from_rows([]), small_spec()),
                 DataError, "equation Y: empty data", id="no-rows"),
    pytest.param(lambda: fit_system(Dataset.from_records(
        {"Y": [0, 1], "X": [0, 1]}), small_spec()),
        DataError, "equation Y: data has no column 'W1'", id="no-column"),
    pytest.param(lambda: design_matrix(_treatment_response(), "X",
                                       _treatment_data()),
                 ModelSpecError, "response 'X' must be binary to fit",
                 id="non-binary-response"),
    pytest.param(lambda: fit_logistic(_treatment_data(),
                                      _treatment_response(), "X"),
                 ModelSpecError, "treatment 'X' cannot be a response",
                 id="fit-logistic-treatment-response"),
    pytest.param(lambda: fit_logistic(Dataset.from_records(
        {"Y": [0, 1] * 6, "X": [0, 1, 1] * 4, "W1": [0, 0, 1, 1] * 3}),
        _treatment_response("binary"), "X"),
        ModelSpecError, "treatment 'X' cannot be a response",
        id="fit-logistic-binary-treatment-response"),
    pytest.param(lambda: fit_system(_treatment_data(), _treatment_response()),
                 ModelSpecError, "treatment 'X' cannot be a response",
                 id="treatment-response"),
    pytest.param(lambda: FittedSystem.from_json_dict(
        _diagnostics_of_no_equation()), ModelSpecError, "'diagnostics' has 'Q', which has no equation",
        id="diagnostics-of-no-equation"),
])
def test_a_fitting_refusal_names_the_value(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_a_singular_information_takes_the_pseudo_inverse_and_flags_it(
        monkeypatch):
    spec = small_spec()
    data = simulate(spec, random_params(spec, np.random.default_rng(45)),
                    300, seed=46)
    fit = fit_logistic(data, spec, "Y")
    assert fit.converged and not fit.separation

    def singular(H):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "inv", singular)
    again = fit_logistic(data, spec, "Y")
    assert again.converged and again.separation
    assert np.array_equal(again.coef, fit.coef)
    assert np.allclose(again.cov, fit.cov, rtol=1e-10, atol=0.0)
