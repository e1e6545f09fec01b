"""Drives the command line end to end, on the bundled example and on
synthetic fits written to disk as artifacts."""

import codecs
import csv
import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st
from importlib import resources

from logitpath import (EffectError, EffectRequest, FittedSystem, SystemSpec,
                       VariableSpec, decompose, effect_table)
from logitpath.fitting import block_covariance
from logitpath.cli import main

from conftest import (enum_logit, enum_prob, expected_data_fit, make_system,
                      random_params)


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def combined(result):
    # click >= 8.2 keeps stderr separate; older releases fold it into output
    try:
        err = result.stderr
    except (ValueError, AttributeError):
        err = ""
    return result.output + err


def records(result):
    assert result.exit_code == 0, combined(result)
    return json.loads(result.output)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    for name in ("example_model.json", "example_counts.json"):
        (d / name).write_text(
            resources.files("logitpath.data").joinpath(name).read_text())
    return d


@pytest.fixture(scope="module")
def artifact(workdir):
    out = workdir / "fit.json"
    result = invoke("fit", "--data", workdir / "example_counts.json",
                    "--model", workdir / "example_model.json", "--out", out)
    assert result.exit_code == 0, combined(result)
    return out


@pytest.fixture(scope="module")
def k3_artifact(workdir):
    # W1 carries no treatment term, so summing it out must leave the
    # global indirect effect untouched (see the marginalization tests)
    rng = np.random.default_rng(130)
    spec = make_system(3, mediator_terms={"W1": ["1", "W2", "W3"]})
    fitted = expected_data_fit(rng, spec=spec)
    out = workdir / "k3.json"
    out.write_text(json.dumps(fitted.to_json_dict()))
    return out


@pytest.fixture(scope="module")
def k2_artifact(workdir):
    rng = np.random.default_rng(131)
    fitted = expected_data_fit(rng, k=2)
    out = workdir / "k2.json"
    out.write_text(json.dumps(fitted.to_json_dict()))
    return out


def test_fit_prints_summary_and_writes_artifact(workdir, artifact):
    result = invoke("fit", "--data", workdir / "example_counts.json",
                    "--model", workdir / "example_model.json")
    assert result.exit_code == 0
    assert "equation Y" in result.output
    assert "converged True" in result.output

    fitted = FittedSystem.from_json_dict(json.loads(artifact.read_text()))
    assert fitted.spec.outcome.name == "Y"
    assert abs(fitted.params.get("Y", "1") - (-1.6186)) < 5e-4


def test_fit_missing_data_file(workdir):
    result = invoke("fit", "--data", workdir / "nope.json",
                    "--model", workdir / "example_model.json")
    assert result.exit_code == 1
    assert "error:" in combined(result)


def test_fit_malformed_model_json(workdir):
    bad = workdir / "bad.json"
    bad.write_text("{")
    result = invoke("fit", "--data", workdir / "example_counts.json",
                    "--model", bad)
    assert result.exit_code == 1
    assert "bad.json" in combined(result)


@pytest.mark.parametrize("doc, named", [
    ({"rows": [[1, 0, 1, 1]]}, "row 1"),
    (5, "malformed.json"),
    ([1, 2], "row 1"),
    ({"rows": {"Y": 1}}, "malformed.json"),
], ids=["list-row", "number", "list-of-numbers", "rows-object"])
def test_fit_rejects_malformed_json_data(workdir, doc, named):
    data = workdir / "malformed.json"
    data.write_text(json.dumps(doc))
    result = invoke("fit", "--data", data,
                    "--model", workdir / "example_model.json")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert named in combined(result)


def test_fit_rejects_invalid_system(workdir):
    doc = json.loads((workdir / "example_model.json").read_text())
    doc["variables"][0]["kind"] = "continuous"
    broken = workdir / "broken_model.json"
    broken.write_text(json.dumps(doc))
    result = invoke("fit", "--data", workdir / "example_counts.json",
                    "--model", broken)
    assert result.exit_code == 1
    assert "invalid system" in combined(result)


def test_decompose_json_matches_fit(artifact):
    result = invoke("decompose", "--fitted", artifact, "--contrast", "2,1",
                    "--set", "C=0", "--scale", "logodds", "--format", "json")
    rows = records(result)
    assert [r["effect"] for r in rows] == ["DE", "IE", "RES", "TE"]
    assert all(r["contrast"] == "2 vs 1" for r in rows)
    assert all("C=0" in r["covariates"] for r in rows)

    fitted = FittedSystem.from_json_dict(json.loads(artifact.read_text()))
    de = rows[0]
    assert abs(de["estimate"] - fitted.params.get("Y", "X{2,1}")) < 1e-10
    assert abs(de["se"] - fitted.se("Y", "X{2,1}")) < 1e-6
    te, ie, res = rows[3], rows[1], rows[2]
    assert abs(te["estimate"] - de["estimate"] - ie["estimate"]
               - res["estimate"]) < 1e-9


def test_decompose_scale_both_puts_logodds_first(artifact):
    result = invoke("decompose", "--fitted", artifact, "--contrast", "2,1",
                    "--set", "C=1", "--format", "json")
    rows = records(result)
    assert [r["effect"] for r in rows] == [
        "DE", "IE", "RES", "TE", "DPE", "IPE", "RPE", "TPE"]


def test_decompose_by_stratifies(artifact):
    result = invoke("decompose", "--fitted", artifact, "--contrast", "2,1",
                    "--by", "C", "--scale", "prob", "--format", "json")
    rows = records(result)
    assert len(rows) == 8
    assert [r["effect"] for r in rows[:4]] == ["DPE", "IPE", "RPE", "TPE"]
    assert all("C=0" in r["covariates"] for r in rows[:4])
    assert all("C=1" in r["covariates"] for r in rows[4:])


def test_decompose_text_csv_and_out(artifact, workdir):
    text = invoke("decompose", "--fitted", artifact, "--contrast", "3,1",
                  "--set", "C=0", "--scale", "logodds")
    assert text.exit_code == 0
    assert "TE" in text.output and "3 vs 1" in text.output

    out = workdir / "table.csv"
    result = invoke("decompose", "--fitted", artifact, "--contrast", "3,1",
                    "--set", "C=0", "--scale", "logodds", "--format", "csv",
                    "--out", out)
    assert result.exit_code == 0
    assert f"wrote {out}" in result.output
    reader = csv.DictReader(io.StringIO(out.read_text()))
    assert reader.fieldnames == ["effect", "contrast", "covariates",
                                 "estimate", "se", "ci_low", "ci_high",
                                 "p_value"]
    assert len(list(reader)) == 4


def test_decompose_path_row_single_mediator(artifact):
    result = invoke("decompose", "--fitted", artifact, "--contrast", "2,1",
                    "--set", "C=0", "--scale", "logodds", "--path", "1",
                    "--format", "json")
    rows = records(result)
    assert [r["effect"] for r in rows] == ["DE", "IE", "RES", "TE", "PSIE[1]"]
    # the only path through a single mediator is the whole indirect effect
    assert abs(rows[4]["estimate"] - rows[1]["estimate"]) < 1e-10
    assert abs(rows[4]["se"] - rows[1]["se"]) < 1e-8


def test_decompose_derivative_needs_continuous_treatment(artifact):
    result = invoke("decompose", "--fitted", artifact, "--at", "0.5",
                    "--set", "C=0")
    assert result.exit_code == 1
    assert "continuous treatment" in combined(result)


@pytest.mark.parametrize("extra,message", [
    ([], "nothing to do"),
    (["--contrast", "2"], "--contrast wants"),
    (["--contrast", "2,1", "--set", "C"], "--set wants"),
    (["--contrast", "2,1", "--set", "Q=1"], "unknown variable"),
    (["--contrast", "9,1", "--set", "C=0"], "treatment 'X' cannot take '9'"),
    (["--contrast", "2,1", "--set", "C=0", "--path", "2,1,3"], "collider"),
    (["--contrast", "2,1", "--set", "C=0", "--path", "1,5"], "mediator"),
    (["--contrast", "2,1", "--set", "C=0", "--by", "Q"], "unknown variable"),
    (["--contrast", "2,1"], "C"),
    (["--contrast", "2,1", "--set", "C=1", "--by", "C"],
     "'C' is named by both --set and --by"),
    (["--contrast", "2,1", "--set", "C=1", "--set", "C=0"],
     "'C' is named twice in --set"),
])
def test_decompose_bad_arguments(artifact, extra, message):
    result = invoke("decompose", "--fitted", artifact, *extra)
    assert result.exit_code == 1
    assert message in combined(result)


@pytest.mark.parametrize("extra,message", [
    (["--set", "C=0", "--set", "X=1"], "cannot fix 'X' (treatment)"),
    (["--by", "X"], "cannot fix 'X' (treatment)"),
    (["--set", "W=1", "--set", "C=0"], "cannot fix 'W' (mediator)"),
], ids=["set-treatment", "by-treatment", "set-mediator"])
def test_decompose_fixes_covariates_only(artifact, extra, message):
    result = invoke("decompose", "--fitted", artifact, "--contrast", "2,1",
                    *extra)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert message in combined(result)


def _total(result):
    return next(r["estimate"] for r in records(result) if r["effect"] == "TE")


def test_decompose_marginalize_flag_errors(artifact, k3_artifact):
    both = invoke("decompose", "--fitted", k3_artifact, "--contrast", "1,0",
                  "--marginalize-inner", "1", "--marginalize-outer", "2")
    assert both.exit_code == 1 and "choose one" in combined(both)

    # any mediator can be summed out, under any of the option's names
    te = _total(invoke("decompose", "--fitted", k3_artifact, "--contrast",
                       "1,0", "--format", "json"))
    for flag in ("--marginalize-inner", "--marginalize-outer"):
        reduced = invoke("decompose", "--fitted", k3_artifact, "--contrast",
                         "1,0", flag, "2", "--format", "json")
        assert abs(_total(reduced) - te) < 1e-9

    beyond = invoke("decompose", "--fitted", k3_artifact, "--contrast",
                    "1,0", "--marginalize", "4")
    assert beyond.exit_code == 1
    assert "mediator index 4 out of range 1..3" in combined(beyond)

    single = invoke("decompose", "--fitted", artifact, "--contrast", "2,1",
                    "--set", "C=0", "--marginalize-inner", "1")
    assert single.exit_code == 1
    assert "two mediators" in combined(single)


def _artifact(workdir, name, spec, seed):
    fitted = expected_data_fit(np.random.default_rng(seed), spec=spec)
    out = workdir / name
    out.write_text(json.dumps(fitted.to_json_dict()))
    return out


def test_decompose_refuses_a_treatment_value_that_is_not_finite(workdir):
    # the error names the value given, in the one form of a value the
    # treatment cannot take, and does not blame the fitted system
    fitted = _artifact(workdir, "continuous.json",
                       make_system(1, treatment="continuous"), 132)
    for at in ("inf", "nan"):
        result = invoke("decompose", "--fitted", fitted, "--at", at)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert (f"error: treatment 'X' cannot take {at}; it takes a finite "
                f"number (for the system in {fitted})") in combined(result)
        assert "at the estimate" not in combined(result)


def test_decompose_refuses_a_system_without_mediators(workdir):
    spec = SystemSpec.build([VariableSpec("Y", "outcome", "binary"),
                             VariableSpec("X", "treatment", "binary")],
                            {"Y": ["1", "X"]})
    fitted = _artifact(workdir, "no_mediators.json", spec, 133)
    result = invoke("decompose", "--fitted", fitted, "--contrast", "1,0")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "system declares no mediators" in combined(result)


def test_decompose_rejects_broken_artifact(workdir):
    stub = workdir / "stub.json"
    stub.write_text(json.dumps({"foo": 1}))
    result = invoke("decompose", "--fitted", stub, "--contrast", "1,0")
    assert result.exit_code == 1
    assert "not a fitted-system artifact" in combined(result)

    gone = invoke("decompose", "--fitted", workdir / "gone.json",
                  "--contrast", "1,0")
    assert gone.exit_code == 1


def _covariance_1x1(block):
    return [[block[0][0]]]


def _covariance_nan(block):
    return [[float("nan")] + row[1:] if i == 0 else row
            for i, row in enumerate(block)]


def _covariance_asymmetric(block):
    out = [list(row) for row in block]
    out[0][1] += 0.5
    return out


def _covariance_ragged(block):
    return [block[0], block[1][:1]] + block[2:]


def _block_artifact(doc):
    """``doc`` with its covariance stored as per-equation blocks, the
    format of older artifacts."""
    fitted = FittedSystem.from_json_dict(doc)
    return {**doc, "covariance": {resp: block.tolist() for resp, block
                                  in fitted.cov_blocks.items()}}


def _covariance_cross(matrix):
    out = [list(row) for row in matrix]
    out[0][-1] += 0.5
    return out


@pytest.mark.parametrize("blocks,mutate,message", [
    (True, _covariance_1x1, "equation 'Y' has shape"),
    (True, _covariance_nan, "equation 'Y' is not finite"),
    (True, _covariance_asymmetric, "equation 'Y' is not symmetric"),
    (True, _covariance_ragged, "not a fitted-system artifact"),
    (False, _covariance_1x1, "'covariance' has shape (1, 1), expected (11, 11)"),
    (False, _covariance_nan, "covariance of equation 'Y' is not finite"),
    (False, _covariance_asymmetric,
     "covariance of equation 'Y' is not symmetric"),
    (False, _covariance_ragged, "'covariance' is not a matrix of numbers"),
    (False, _covariance_cross,
     "covariance of equation 'Y' with 'W' is not symmetric"),
], ids=["wrong-shape", "non-finite", "asymmetric", "ragged",
        "matrix-wrong-shape", "matrix-non-finite", "matrix-asymmetric",
        "matrix-ragged", "matrix-cross-asymmetric"])
def test_decompose_rejects_bad_covariance_block(artifact, workdir, blocks,
                                                mutate, message):
    doc = json.loads(artifact.read_text())
    if blocks:
        doc = _block_artifact(doc)
        doc["covariance"]["Y"] = mutate(doc["covariance"]["Y"])
    else:
        doc["covariance"] = mutate(doc["covariance"])
    bad = workdir / "bad_covariance.json"
    bad.write_text(json.dumps(doc))
    result = invoke("decompose", "--fitted", bad, "--contrast", "2,1",
                    "--set", "C=0")
    assert result.exit_code == 1
    text = combined(result)
    assert f"error: {bad}: " in text and message in text


def test_a_block_artifact_loads_block_diagonal(artifact, k2_artifact,
                                               workdir):
    # a fit's covariance is block-diagonal, so both formats give one table
    args = ("--contrast", "2,1", "--by", "C", "--format", "json")
    doc = json.loads(artifact.read_text())
    old = workdir / "blocks.json"
    old.write_text(json.dumps(_block_artifact(doc)))
    assert (records(invoke("decompose", "--fitted", old, *args))
            == records(invoke("decompose", "--fitted", artifact, *args)))
    # a reduced system's blocks load with nothing between the equations
    out = workdir / "k2_reduced_for_blocks.json"
    assert invoke("marginalize", "--fitted", k2_artifact, "--mediator", "2",
                  "--out", out).exit_code == 0
    full = FittedSystem.from_json_dict(json.loads(out.read_text()))
    loaded = FittedSystem.from_json_dict(
        _block_artifact(json.loads(out.read_text())))
    assert np.array_equal(loaded.covariance,
                          block_covariance(full.spec, full.cov_blocks))
    assert not np.array_equal(loaded.covariance, full.covariance)


@pytest.mark.parametrize("mediator", ["2", "3"])
def test_a_saved_reduction_decomposes_as_the_flag_does(k3_artifact, workdir,
                                                       mediator):
    out = workdir / f"k3_without_{mediator}.json"
    result = invoke("marginalize", "--fitted", k3_artifact, "--mediator",
                    mediator, "--out", out)
    assert result.exit_code == 0, combined(result)
    args = ("--contrast", "1,0", "--scale", "both", "--format", "json")
    saved = invoke("decompose", "--fitted", out, *args)
    flag = invoke("decompose", "--fitted", k3_artifact, "--marginalize",
                  mediator, *args)
    assert saved.exit_code == 0 and flag.exit_code == 0
    assert saved.output == flag.output


def _set(path, value):
    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return mutate


def _drop(path):
    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        del doc[last]
    return mutate


@pytest.mark.parametrize("mutate,field", [
    (_set(["params"], 5), "'params'"),
    (_set(["params", "W"], [1, 2, 3]), "'W' of 'params'"),
    (_set(["diagnostics"], 5), "'diagnostics'"),
    (_set(["diagnostics", "Y", "loglik"], "high"), "'loglik'"),
    (_set(["params", "Y", "X{2,1}"], "x"), "'X{2,1}' of 'Y' of 'params'"),
    # X{2,1} must not be read as the 2-vs-0 coefficient
    (_set(["spec", "variables", 2, "levels"], [0, 2, 3]), "'X{2,1}'"),
    # true and false are not numbers, and a number must be finite
    (_set(["params", "Y", "X{2,1}"], True), "'X{2,1}' of 'Y' of 'params'"),
    (_set(["params", "Y", "X{2,1}"], float("nan")),
     "'X{2,1}' of 'Y' of 'params' must be a finite number"),
    (_set(["n"], True), "'n' of the artifact must be a number"),
    (_set(["n"], float("nan")), "'n' of the artifact must be a finite"),
    (_set(["n"], -5), "'n' of the artifact must be a finite number >= 0"),
    (_set(["diagnostics", "Y", "loglik"], True), "'loglik'"),
    (_set(["diagnostics", "Y", "iterations"], True), "'iterations'"),
    (_set(["covariance", 0, 0], True), "'covariance' is not a matrix"),
    (_set(["covariance", 0, 0], "0.1"), "'covariance' is not a matrix"),
    (_set(["covariance"], 5), "'covariance' of the artifact must be a list "
                              "or an object"),
], ids=["params", "equation-params", "diagnostics", "loglik", "coefficient",
        "reference-level", "coefficient-true", "coefficient-nan", "n-true",
        "n-nan", "n-negative", "loglik-true", "iterations-true",
        "covariance-true", "covariance-string", "covariance-number"])
def test_decompose_names_the_malformed_artifact_field(artifact, workdir,
                                                      mutate, field):
    doc = json.loads(artifact.read_text())
    mutate(doc)
    bad = workdir / "malformed.json"
    bad.write_text(json.dumps(doc))
    result = invoke("decompose", "--fitted", bad, "--contrast", "2,1",
                    "--set", "C=0")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"error: {bad}: " in combined(result)
    assert field in combined(result)


@pytest.mark.parametrize("mutate,field", [
    (_set(["equations"], 5), "'equations'"),
    (_set(["equations", "Y"], 5), "'Y' of 'equations'"),
    (_set(["variables", 1], 5), "variables[1]"),
    (_drop(["variables", 0, "name"]), "variables[0] has no 'name'"),
    (_set(["variables", 2, "levels"], [[1], [2]]), "levels of 'X'"),
    (_set(["variables", 1, "index"], "first"), "mediator_index"),
    (_set(["equations", "W"], []), "equation 'W' has no terms"),
    (_set(["variables", 1, "index"], True), "mediator_index"),
    (_set(["variables", 2, "levels", 0], True), "levels of 'X' must be "
                                                "numbers or strings"),
], ids=["equations", "equation", "variable", "name", "levels", "index",
        "no-terms", "index-true", "level-true"])
def test_fit_names_the_malformed_model_field(workdir, mutate, field):
    doc = json.loads((workdir / "example_model.json").read_text())
    mutate(doc)
    bad = workdir / "malformed_model.json"
    bad.write_text(json.dumps(doc))
    result = invoke("fit", "--data", workdir / "example_counts.json",
                    "--model", bad)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"error: {bad}: " in combined(result)
    assert field in combined(result)


def fields(doc, path=()):
    """The path of every object member and list item in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from fields(value, path + (key,))


ODD_VALUES = (None, True, False, 0, -1, 5, 2.5, "x", "", [], {}, [1, 2, 3],
              {"a": 1}, [[1]])


def _boolean_for_number(held, value) -> bool:
    """Whether ``value`` is true or false put where the number ``held``
    was: no number, so always refused."""
    return isinstance(value, bool) and isinstance(held, (int, float)) \
        and not isinstance(held, bool)


@st.composite
def mutated(draw, doc):
    """``doc`` with one field deleted or replaced by an odd value, and
    whether that value is true or false in place of a number."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(fields(doc))))
    if draw(st.booleans()):
        _drop(path)(doc)
        return doc, False
    held, value = _at(doc, path), draw(st.sampled_from(ODD_VALUES))
    _set(path, value)(doc)
    return doc, _boolean_for_number(held, value)


def succeeds_or_names(result, path):
    if result.exit_code == 0:
        return
    assert isinstance(result.exception, SystemExit), result.exception
    assert any(line.startswith("error: ") and str(path) in line
               for line in combined(result).splitlines()), combined(result)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def dumps(doc, repeat=None):
    """``doc`` as JSON text; ``repeat`` is None or (path, key), and that
    key of the object at path is written a second time."""
    def dump(node, here):
        if isinstance(node, dict):
            pairs = [*node.items()]
            if repeat and repeat[0] == here:
                pairs.append((repeat[1], node[repeat[1]]))
            return "{%s}" % ", ".join(f"{json.dumps(k)}: {dump(v, here + (k,))}"
                                      for k, v in pairs)
        if isinstance(node, list):
            return "[%s]" % ", ".join(dump(v, here + (i,))
                                      for i, v in enumerate(node))
        return json.dumps(node)
    return dump(doc, ())


@st.composite
def written(draw, doc):
    """``doc`` as (variant, the bytes of a file): plain JSON, or JSON with
    a BOM, with one key of one object repeated, or with an \\xff byte."""
    variant = draw(st.sampled_from(["plain", "bom", "repeat", "xff"]))
    repeat = None
    if variant == "repeat":
        path = draw(st.sampled_from([p for p in [(), *fields(doc)]
                                     if isinstance(_at(doc, p), dict)
                                     and _at(doc, p)]))
        repeat = path, draw(st.sampled_from(sorted(_at(doc, path))))
    raw = dumps(doc, repeat).encode()
    if variant == "bom":
        raw = codecs.BOM_UTF8 + raw
    if variant == "xff":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return variant, raw


def reads_readably(run, path, variant, raw, refused=False):
    """Write ``raw`` to ``path`` and ``run`` a command on it.  Plain JSON
    succeeds or names the file; a repeated key, a bad byte, or true or
    false in place of a number (``refused``) fails, naming the file; a
    BOM gives what the file without it gives."""
    path.write_bytes(raw)
    result = run()
    assert (variant not in ("repeat", "xff") and not refused) \
        or result.exit_code == 1, combined(result)
    succeeds_or_names(result, path)
    if variant == "bom":
        path.write_bytes(raw[len(codecs.BOM_UTF8):])
        plain = run()
        assert (result.exit_code, combined(result)) == (plain.exit_code,
                                                        combined(plain))


@given(st.data())
def test_any_broken_model_field_fails_readably(workdir, data):
    doc, refused = data.draw(mutated(json.loads(
        (workdir / "example_model.json").read_text())))
    bad = workdir / "fuzzed_model.json"
    reads_readably(lambda: invoke("fit", "--data",
                                  workdir / "example_counts.json",
                                  "--model", bad),
                   bad, *data.draw(written(doc)), refused)


@given(st.data())
def test_any_broken_artifact_field_fails_readably(artifact, workdir, data):
    doc, refused = data.draw(mutated(json.loads(artifact.read_text())))
    bad = workdir / "fuzzed_artifact.json"
    reads_readably(lambda: invoke("decompose", "--fitted", bad, "--contrast",
                                  "2,1", "--set", "C=0", "--scale", "logodds"),
                   bad, *data.draw(written(doc)), refused)


@given(st.data())
def test_any_broken_k2_artifact_field_fails_readably_in_marginalize(
        k2_artifact, workdir, data):
    doc, refused = data.draw(mutated(json.loads(k2_artifact.read_text())))
    bad = workdir / "fuzzed_k2.json"
    reads_readably(lambda: invoke("marginalize", "--fitted", bad, "--mediator",
                                  "1", "--out",
                                  workdir / "fuzzed_reduced.json"),
                   bad, *data.draw(written(doc)), refused)


SMALL_GRID = {"seed": 83, "replications": 3, "treatment": ["binary"],
              "beta_x": [0.9], "n": [60]}


@given(st.data())
def test_any_broken_grid_field_fails_readably(workdir, data):
    doc, refused = data.draw(mutated(SMALL_GRID))
    bad = workdir / "fuzzed_grid.json"
    reads_readably(lambda: invoke("simulate", "--config", bad), bad,
                   *data.draw(written(doc)), refused)


def test_inner_marginalization_preserves_gie(k3_artifact):
    full = records(invoke("decompose", "--fitted", k3_artifact,
                          "--contrast", "1,0", "--scale", "logodds",
                          "--format", "json"))
    reduced = records(invoke("decompose", "--fitted", k3_artifact,
                             "--contrast", "1,0", "--scale", "logodds",
                             "--marginalize-inner", "1", "--format", "json"))
    assert [r["effect"] for r in full] == ["DE", "GIE", "RES", "TE"]
    assert [r["effect"] for r in reduced] == ["DE", "GIE", "RES", "TE"]
    by_full = {r["effect"]: r for r in full}
    by_red = {r["effect"]: r for r in reduced}
    for name in ("TE", "GIE"):
        assert abs(by_red[name]["estimate"] - by_full[name]["estimate"]) < 1e-6
        assert abs(by_red[name]["se"] - by_full[name]["se"]) < 1e-6


def test_marginalize_inner_roundtrip(k3_artifact, workdir):
    out = workdir / "k3_reduced.json"
    result = invoke("marginalize", "--fitted", k3_artifact, "--inner", "1",
                    "--out", out)
    assert result.exit_code == 0, combined(result)
    assert f"wrote {out}" in result.output

    # survivors keep their names and slide down one index
    reduced = FittedSystem.from_json_dict(json.loads(out.read_text()))
    assert [m.name for m in reduced.spec.mediators] == ["W2", "W3"]
    assert [m.mediator_index for m in reduced.spec.mediators] == [1, 2]

    full = records(invoke("decompose", "--fitted", k3_artifact,
                          "--contrast", "1,0", "--scale", "logodds",
                          "--format", "json"))
    red = records(invoke("decompose", "--fitted", out, "--contrast", "1,0",
                         "--scale", "logodds", "--format", "json"))
    te_full = next(r for r in full if r["effect"] == "TE")
    te_red = next(r for r in red if r["effect"] == "TE")
    assert abs(te_red["estimate"] - te_full["estimate"]) < 1e-6
    assert abs(te_red["se"] - te_full["se"]) < 1e-4


def test_marginalize_outer_and_flag_errors(k2_artifact, k3_artifact, workdir):
    out = workdir / "k2_outer.json"
    result = invoke("marginalize", "--fitted", k2_artifact, "--outer", "2",
                    "--out", out)
    assert result.exit_code == 0, combined(result)
    reduced = FittedSystem.from_json_dict(json.loads(out.read_text()))
    assert [m.name for m in reduced.spec.mediators] == ["W1"]

    neither = invoke("marginalize", "--fitted", k2_artifact, "--out", out)
    assert neither.exit_code == 2
    assert "Missing option '--mediator'" in combined(neither)

    both = invoke("marginalize", "--fitted", k2_artifact, "--inner", "1",
                  "--outer", "2", "--out", out)
    assert both.exit_code == 1 and "choose exactly one" in combined(both)

    # --inner 2 of two is the outer reduction; --outer 2 of three sums W2
    # out and keeps the outcome law
    inner2 = invoke("marginalize", "--fitted", k2_artifact, "--inner", "2",
                    "--out", out)
    assert inner2.exit_code == 0, combined(inner2)
    reduced = FittedSystem.from_json_dict(json.loads(out.read_text()))
    assert [m.name for m in reduced.spec.mediators] == ["W1"]

    outer3 = invoke("marginalize", "--fitted", k3_artifact, "--outer", "2",
                    "--out", out)
    assert outer3.exit_code == 0, combined(outer3)
    reduced = FittedSystem.from_json_dict(json.loads(out.read_text()))
    assert [m.name for m in reduced.spec.mediators] == ["W1", "W3"]
    te = [_total(invoke("decompose", "--fitted", path, "--contrast", "1,0",
                        "--scale", "logodds", "--format", "json"))
          for path in (k3_artifact, out)]
    assert abs(te[1] - te[0]) < 1e-9


def test_simulate_tiny_grid(workdir):
    config = workdir / "grid.json"
    config.write_text(json.dumps({
        "seed": 81, "replications": 6, "treatment": ["binary"],
        "beta_x": [0.9], "n": [200]}))
    out = workdir / "study.csv"
    result = invoke("simulate", "--config", config, "--out", out)
    assert result.exit_code == 0, combined(result)
    assert "rsd avg=" in result.output
    assert f"wrote {out}" in result.output

    reader = csv.DictReader(io.StringIO(out.read_text()))
    assert reader.fieldnames[:4] == ["method", "treatment", "beta_x", "n"]
    rows = list(reader)
    assert [r["method"] for r in rows] == ["khb", "rsd"]
    assert all(r["n"] == "200" for r in rows)


def test_simulate_prints_each_cell_as_it_finishes(workdir, monkeypatch):
    import click
    from logitpath import simulation

    events = []
    run_cell, echo = simulation.run_cell, click.echo

    def traced_cell(cfg):
        events.append("cell")
        return run_cell(cfg)

    def traced_echo(message=None, *args, **kwargs):
        events.append(str(message).split()[0])
        return echo(message, *args, **kwargs)

    monkeypatch.setattr(simulation, "run_cell", traced_cell)
    monkeypatch.setattr(click, "echo", traced_echo)
    config = workdir / "two_cells.json"
    config.write_text(json.dumps({
        "seed": 82, "replications": 4, "treatment": ["binary"],
        "beta_x": [0.4, 1.8], "n": [150]}))
    result = invoke("simulate", "--config", config)
    assert result.exit_code == 0, combined(result)
    # each summary line is out before the next cell starts, the CSV last
    assert events == ["cell", "binary", "cell", "binary",
                      "method,treatment,beta_x,n,average,variance,rmse,"
                      "true_value,excluded"]
    lines = result.output.splitlines()
    assert [l.split()[1] for l in lines[:2]] == ["beta_x=0.4", "beta_x=1.8"]
    assert lines[2].startswith("method,")

@pytest.fixture(scope="module")
def continuous_model(workdir):
    doc = json.loads((workdir / "example_model.json").read_text())
    treatment = next(v for v in doc["variables"] if v["name"] == "X")
    treatment["kind"] = "continuous"
    del treatment["levels"]
    out = workdir / "continuous_model.json"
    out.write_text(json.dumps(doc))
    return out


ODD_DATA = ODD_VALUES + ("nan", "inf", 1e400, 10 ** 400)


@given(st.data())
def test_any_odd_data_value_fails_readably(workdir, continuous_model, data):
    doc = json.loads((workdir / "example_counts.json").read_text())
    path = data.draw(st.sampled_from([("rows", i, key)
                                      for i, row in enumerate(doc["rows"])
                                      for key in row]))
    held, value = _at(doc, path), data.draw(st.sampled_from(ODD_DATA))
    _set(path, value)(doc)
    bad = workdir / "fuzzed_data.json"
    model = data.draw(st.sampled_from([workdir / "example_model.json",
                                       continuous_model]))
    reads_readably(lambda: invoke("fit", "--data", bad, "--model", model),
                   bad, *data.draw(written(doc)),
                   _boolean_for_number(held, value))


@pytest.mark.parametrize("column,message", [
    ("Y", "outcome 'Y' cannot take {}; it takes 0 or 1"),
    ("W", "mediator 'W' cannot take {}; it takes 0 or 1"),
    ("X", "treatment 'X' cannot take {}; it takes a level in [1, 2, 3]"),
    ("C", "covariate 'C' cannot take {}; it takes 0 or 1"),
], ids=["Y", "W", "X", "C"])
@pytest.mark.parametrize("value", [True, False])
def test_fit_refuses_a_boolean_data_value(workdir, column, message, value):
    # before, a JSON true was fitted as 1 and false as 0
    doc = json.loads((workdir / "example_counts.json").read_text())
    doc["rows"][0][column] = value
    bad = workdir / "boolean_data.json"
    bad.write_text(json.dumps(doc))
    model = workdir / "example_model.json"
    result = invoke("fit", "--data", bad, "--model", model)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    line = combined(result).strip()
    assert line.startswith(f"error: {bad}: ")
    assert "row 1: " + message.format(value) in line
    assert line.endswith(f"(for the system in {model})")


def test_fit_rejects_a_non_numeric_count(workdir):
    data = workdir / "bad_count.csv"
    data.write_text("Y,W,X,C,count\n1,0,1,1,3\n0,1,2,1,x\n")
    result = invoke("fit", "--data", data,
                    "--model", workdir / "example_model.json")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "row 2" in combined(result) and "count" in combined(result)


@pytest.mark.parametrize("name,text,message", [
    ("count.csv", "Y,W,X,C,count\n1,0,1,1,3\n0,1,2,1,x\n", "row 2 has count"),
    ("syntax.json", "[{", ":1: "),
    ("empty.csv", "Y,W,X,C,count\n", "empty data"),
    ("nan.csv", "Y,W,X,C\n1,0,0.5,1\n0,1,nan,1\n",
     "treatment 'X' cannot take 'nan'"),
    ("inf.csv", "Y,W,X,C\n1,0,0.5,1\n0,1,inf,1\n",
     "treatment 'X' cannot take 'inf'"),
    ("big_value.json", '[{"Y": 1, "W": 0, "X": 1, "C": 1%s}]' % ("0" * 400),
     "row 1: covariate 'C' cannot take 1000"),
    ("big_count.json",
     '[{"Y": 1, "W": 0, "X": 1, "C": 1, "count": 1%s}]' % ("0" * 400),
     "row 1 has count"),
    ("binary.csv", "Y,W,X,C\n1,0,0.5,1\n0,1,0.5,7\n",
     "row 2: covariate 'C' cannot take '7'; it takes 0 or 1"),
    ("binary.json", '[{"Y": 1, "W": 0, "X": 1, "C": 1}, '
                    '{"Y": 0, "W": 2, "X": 1, "C": 1}]',
     "row 2: mediator 'W' cannot take 2; it takes 0 or 1"),
    ("nan_row.csv", "Y,W,X,C\n1,0,0.5,1\n0,1,nan,1\n",
     "row 2: treatment 'X' cannot take 'nan'; it takes a finite number"),
    ("no_rows.json", '{"row": [{"Y": 1, "W": 0, "X": 1, "C": 1}]}',
     "an object holding one under 'rows'"),
    ("long_field.csv", "Y,W,X,C\n1,0,0.5,%s\n" % ("1" * 200_000),
     "field larger than field limit"),
    ("two_rows.csv", "Y,W,X,C\n1,0,0.5,0\n0,1,1.5,1\n",
     "equation Y: design matrix is rank deficient"),
], ids=["count", "json-syntax", "empty", "nan", "inf", "big-value",
        "big-count", "binary-row", "binary-json-row", "nan-row", "no-rows",
        "long-field", "rank-deficient"])
def test_unreadable_data_names_the_data_file(workdir, continuous_model, name,
                                             text, message):
    # the continuous treatment lets nan and inf reach the fit
    data = workdir / name
    data.write_text(text)
    result = invoke("fit", "--data", data, "--model", continuous_model)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"error: {data}" in combined(result)
    assert message in combined(result)


def _input_files(workdir, artifact, k2_artifact):
    """Per input file: its path, the command that reads it, and the (path,
    key) of an object member to repeat in it."""
    data, model = workdir / "example_counts.json", workdir / "example_model.json"
    grid = workdir / "small_grid.json"
    grid.write_text(json.dumps(SMALL_GRID))
    reduced = workdir / "bytes_reduced.json"
    return {
        "model": (model, lambda p: ("fit", "--data", data, "--model", p),
                  (("equations",), "Y")),
        "data": (data, lambda p: ("fit", "--data", p, "--model", model),
                 (("rows", 1), "C")),
        "artifact": (artifact, lambda p: ("decompose", "--fitted", p,
                                          "--contrast", "2,1", "--set", "C=0"),
                     (("params", "Y"), "X{2,1}")),
        "k2-artifact": (k2_artifact, lambda p: ("marginalize", "--fitted", p,
                                                "--mediator", "1", "--out",
                                                reduced),
                        ((), "n")),
        "grid": (grid, lambda p: ("simulate", "--config", p), ((), "n")),
    }


@pytest.mark.parametrize("variant", ["repeat", "xff", "bom"])
@pytest.mark.parametrize("which", ["model", "data", "artifact", "k2-artifact",
                                   "grid"])
def test_every_input_file_is_read_as_utf8_json_with_each_key_once(
        workdir, artifact, k2_artifact, which, variant):
    source, command, repeat = _input_files(workdir, artifact,
                                           k2_artifact)[which]
    doc = json.loads(source.read_text())
    raw = dumps(doc, repeat if variant == "repeat" else None).encode()
    raw = {"repeat": raw, "bom": codecs.BOM_UTF8 + raw,
           "xff": raw[:20] + b"\xff" + raw[20:]}[variant]
    path = workdir / f"bytes_{which}.json"
    path.write_bytes(raw)
    result = invoke(*command(path))
    if variant == "bom":
        path.write_bytes(raw[len(codecs.BOM_UTF8):])
        assert result.exit_code == 0, combined(result)
        assert combined(result) == combined(invoke(*command(path)))
        return
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"error: {path}: " in combined(result)
    assert ("is named twice in one object" if variant == "repeat"
            else "not UTF-8 text (byte 0xff") in combined(result)


def test_a_csv_with_a_bom_fits_as_without_one(workdir):
    model = workdir / "example_model.json"
    rows = json.loads((workdir / "example_counts.json").read_text())["rows"]
    text = "Y,X,W,C,count\n" + "".join(
        f"{r['Y']},{r['X']},{r['W']},{r['C']},{r['count']}\n" for r in rows)
    plain, bom = workdir / "plain.csv", workdir / "bom.csv"
    plain.write_text(text)
    bom.write_bytes(codecs.BOM_UTF8 + text.encode())
    results = [invoke("fit", "--data", p, "--model", model)
               for p in (plain, bom)]
    assert results[0].exit_code == 0, combined(results[0])
    assert results[0].output == results[1].output


def test_data_that_does_not_fit_the_model_names_both_files(workdir):
    data = workdir / "level.csv"
    data.write_text("Y,W,X,C,count\n1,0,1,1,3\n0,1,7,1,2\n")
    model = workdir / "example_model.json"
    result = invoke("fit", "--data", data, "--model", model)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"error: {data}: " in combined(result)
    assert ("row 2: treatment 'X' cannot take '7'; it takes a level in "
            "[1, 2, 3]") in combined(result)
    assert f"(for the system in {model})" in combined(result)


def test_a_value_a_variable_cannot_take_gets_one_message(workdir, artifact):
    # a data file, a CLI argument and a library call all refuse C = 7 alike
    body = "covariate 'C' cannot take '7'; it takes 0 or 1"
    model, data = workdir / "example_model.json", workdir / "c7.csv"
    data.write_text("Y,W,X,C\n1,0,1,1\n0,1,2,7\n")
    result = invoke("fit", "--data", data, "--model", model)
    assert result.exit_code == 1
    assert (f"error: {data}: equation Y: row 2: {body} (for the system in "
            f"{model})") in combined(result)
    result = invoke("decompose", "--fitted", artifact, "--contrast", "2,1",
                    "--set", "C=7")
    assert result.exit_code == 1
    assert f"error: {body} (for the system in {artifact})" in combined(result)
    fitted = FittedSystem.from_json_dict(json.loads(artifact.read_text()))
    with pytest.raises(EffectError) as err:
        effect_table(fitted, [EffectRequest.contrast(2, 1, {"C": "7"})])
    assert str(err.value) == body


@pytest.mark.parametrize("extra,message", [
    (["--set", "C=7"], "covariate 'C' cannot take '7'; it takes 0 or 1"),
    (["--by", "Q"], "unknown variable"),
    (["--contrast", "9,1", "--set", "C=0"],
     "treatment 'X' cannot take '9'; it takes a level in [1, 2, 3]"),
], ids=["set", "by", "contrast"])
def test_argument_errors_do_not_blame_the_artifact(artifact, extra, message):
    result = invoke("decompose", "--fitted", artifact, "--contrast", "2,1",
                    *extra)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"error: {artifact}:" not in combined(result)
    assert f"(for the system in {artifact})" in combined(result)
    assert message in combined(result)


@pytest.mark.parametrize("kind", ["binary", "continuous"])
def test_simulate_refuses_a_cell_without_a_total_effect(workdir, kind):
    # before: a ZeroDivisionError traceback (binary), or a true value and
    # an rmse of nan written with exit 0 (continuous)
    config = workdir / f"flat_{kind}.json"
    config.write_text(json.dumps({
        "seed": 3, "replications": 5, "treatment": [kind], "beta_x": [0.0],
        "n": [100], "gamma_x": 0.0}))
    result = invoke("simulate", "--config", config)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert combined(result).startswith(
        f"error: {config}: cell {kind}/beta_x=0.0/n=100: its total effect "
        f"at the truth is 0, so its mediated share is undefined\n")


def test_simulate_config_errors(workdir):
    as_list = workdir / "list.json"
    as_list.write_text("[1, 2]")
    result = invoke("simulate", "--config", as_list)
    assert result.exit_code == 1
    assert "expected a JSON object" in combined(result)

    sparse = workdir / "sparse.json"
    sparse.write_text(json.dumps({"seed": 1}))
    result = invoke("simulate", "--config", sparse)
    assert result.exit_code == 1
    assert "bad study config" in combined(result)


@pytest.mark.parametrize("change,field", [
    ({"beta0": "x"}, "'beta0'"),
    ({"treatment": ["continuous"], "pseudo_population": 50},
     "pseudo_population"),
    ({"beta_xw": 0.5}, "unknown key 'beta_xw'"),
], ids=["beta0", "population", "unknown-key"])
def test_simulate_names_the_config_and_the_field(workdir, change, field):
    config = workdir / "odd_grid.json"
    config.write_text(json.dumps({**SMALL_GRID, **change}))
    result = invoke("simulate", "--config", config)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert combined(result).startswith(f"error: {config}: ")
    assert field in combined(result)


# -- refusals and options no other test reaches -----------------------------

def _write(workdir, name, text):
    path = workdir / name
    path.write_text(text)
    return path


def _treatment_response_model(workdir):
    # the categorical treatment given an equation of its own
    doc = json.loads((workdir / "example_model.json").read_text())
    doc["equations"]["X"] = ["1"]
    return _write(workdir, "treatment_response.json", json.dumps(doc))


def _continuous_covariate_artifact(workdir):
    doc = make_system(1, covariate=True).to_json_dict()
    covariate = next(v for v in doc["variables"] if v["name"] == "C")
    covariate["kind"] = "continuous"
    spec = SystemSpec.from_json_dict(doc)
    fitted = FittedSystem(spec, random_params(spec, np.random.default_rng(7)),
                          np.eye(len(spec.flat_coords)), {}, 100.0)
    return _write(workdir, "continuous_c.json",
                  json.dumps(fitted.to_json_dict()))


@pytest.mark.parametrize("args,named,message", [
    pytest.param(lambda d, fit: (
        "fit", "--model", _treatment_response_model(d),
        "--data", d / "example_counts.json"), 2,
        "treatment 'X' cannot be a response", id="fit-treatment-response"),
    pytest.param(lambda d, fit: (
        "fit", "--model", d / "example_model.json", "--data",
        _write(d, "no_c.csv", "Y,W,X,count\n1,0,1,3\n0,1,2,4\n")), 4,
        "equation Y: data has no column 'C'", id="fit-csv-without-column"),
    pytest.param(lambda d, fit: (
        "fit", "--model", d / "example_model.json", "--data",
        _write(d, "no_rows.json", "[]")), 4,
        "equation Y: empty data", id="fit-no-rows"),
    pytest.param(lambda d, fit: (
        "decompose", "--fitted", _continuous_covariate_artifact(d),
        "--contrast", "1,0", "--by", "C"), 2,
        "--by needs a binary or categorical variable, 'C' is continuous",
        id="by-continuous"),
    pytest.param(lambda d, fit: (
        "marginalize", "--fitted", fit, "--mediator", "1", "--out",
        d / "reduced.json"), 2,
        "summing a mediator out needs at least two mediators",
        id="marginalize-one-mediator"),
])
def test_a_cli_refusal_names_the_value_and_the_file(workdir, artifact, args,
                                                    named, message):
    args = args(workdir, artifact)
    result = invoke(*args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert message in combined(result)
    assert str(args[named]) in combined(result)


def test_simulate_seed_is_the_grid_seed(workdir):
    config = _write(workdir, "seed_11.json",
                    json.dumps({**SMALL_GRID, "seed": 11}))
    seed_5 = _write(workdir, "seed_5.json",
                    json.dumps({**SMALL_GRID, "seed": 5}))
    written = []
    for args in ((config, "--seed", 5), (seed_5,), (config,)):
        out = workdir / f"seeded_{len(written)}.csv"
        result = invoke("simulate", "--config", *args, "--out", out)
        assert result.exit_code == 0, combined(result)
        written.append(out.read_text())
    assert written[0] == written[1] != written[2]


# -- a derivative effect table ----------------------------------------------

def test_a_derivative_effect_table_is_decompose_at_each_point(workdir):
    spec = make_system(2, treatment="continuous", extra_terms=("X:W1",))
    fitted = expected_data_fit(np.random.default_rng(134), spec=spec)
    path = _write(workdir, "derivative.json",
                  json.dumps(fitted.to_json_dict()))
    points, h = (0.25, 0.8), 1e-4
    requests = [EffectRequest.derivative(x, scale=scale)
                for scale in ("logodds", "probability") for x in points]
    rows = effect_table(fitted, requests).to_records()
    assert len(rows) == 4 * len(requests)
    for request, four in zip(requests, zip(*[iter(rows)] * 4)):
        de, ie, res, te = (r["estimate"] for r in four)
        assert {r["contrast"] for r in four} == {f"d/dx at {request.at}"}
        assert abs(de + ie + res - te) <= 1e-12
        d = decompose(fitted.params, request)
        assert (de, ie, res, te) == (d.direct, d.indirect, d.residual,
                                     d.total)
        if request.scale == "logodds":
            fd = [enum_logit(fitted.params, request.at + s * h)
                  for s in (1, -1)]
        else:
            fd = [enum_prob(fitted.params, request.at + s * h)
                  for s in (1, -1)]
        assert abs(te - (fd[0] - fd[1]) / (2 * h)) <= 1e-6
        assert all(math.isfinite(r["se"]) and r["se"] > 0 for r in four)
    # the CLI's rows are the library's, both scales at each --at
    cli = records(invoke("decompose", "--fitted", path, "--at", points[0],
                         "--at", points[1], "--format", "json"))
    assert cli == rows
